"""Pluggable execution backends for the parallel executor.

:func:`repro.parallel.executor.run_jobs` drives batched tasks through a
*backend* — the small ``submit/cancel/workers/evict/reset/close``
surface defined by :class:`Backend` here.  Two implementations ship:

* :class:`repro.parallel.backend.local.LocalBackend` — the historical
  in-process ``ProcessPoolExecutor`` path, byte-identical to the
  pre-backend executor (it drives the same module-global pool state in
  ``executor.py``);
* :class:`repro.parallel.backend.tcp.TCPBackend` — a length-prefixed
  JSON work-queue server fed by ``python -m repro.worker`` clients,
  which may be loopback subprocesses (CI, 1-core boxes) or remote
  hosts dialled via ``host:port`` specs.

Selection is by name: ``run_jobs(..., backend="tcp")``, the
``REPRO_BACKEND`` environment variable, or ``--backend`` on the
experiments CLI; ``REPRO_BACKEND_WORKERS`` (CLI ``--workers``) holds
either a loopback worker count or a comma-separated ``host:port`` list.
``local`` is the default and maps to *no* backend object, so the
executor's historical pool path runs untouched.

The failure contract mirrors the retry layer's existing semantics: a
future that fails with :class:`WorkerLost` is collateral damage (a dead
connection), rescheduled without burning the task's attempt budget —
exactly how a ``BrokenProcessPool`` collateral loss is treated — and a
remote backend whose last worker is gone degrades to the local pool
rather than failing the run.

``ENV_PROPAGATED`` lists the ``REPRO_*`` knobs that travel inside every
task envelope, so a remote worker computes with the submitting
process's configuration (engine selection, batching, cache backends)
regardless of its own environment.  Pool workers inherit the whole
environment at fork instead; both paths are pinned by
``tests/parallel/test_backend.py``.
"""

from __future__ import annotations

import os
import warnings
from concurrent.futures import Future
from typing import Dict, Iterable, Optional, Sequence

#: Backend selection: ``local`` (default) or ``tcp``.
ENV_BACKEND = "REPRO_BACKEND"

#: TCP worker spec: a loopback worker count (``"2"``) or a
#: comma-separated ``host:port`` list of listening workers to dial.
ENV_WORKERS = "REPRO_BACKEND_WORKERS"

#: Seconds a remote backend waits for a worker to (re)join before the
#: executor degrades to the local pool.
ENV_GRACE = "REPRO_BACKEND_GRACE"

#: REPRO_* knobs shipped in every task envelope so remote workers
#: compute with the submitter's configuration.  REPRO_CACHE_DIR is
#: deliberately absent — cache paths are host-local; the trace store is
#: shared by content address (fetch-over-socket on miss), results by
#: value.  REPRO_FAULT_HANG_SECONDS rides along so chaos runs stall
#: remote workers deterministically.
ENV_PROPAGATED = ("REPRO_ENGINE", "REPRO_BATCH", "REPRO_RESULT_CACHE",
                  "REPRO_FAULT_HANG_SECONDS")


class WorkerLost(RuntimeError):
    """A worker connection died mid-task (collateral; retry for free)."""


class BackendBroken(RuntimeError):
    """The backend cannot serve at all (e.g. no worker ever joined)."""


class RemoteTaskError(RuntimeError):
    """A task failed *on* a worker; ``kind`` names the original type."""

    def __init__(self, kind: str, message: str) -> None:
        super().__init__(f"{kind}: {message}" if kind else message)
        self.kind = kind or type(self).__name__


def capture_env(names: Iterable[str] = ENV_PROPAGATED) -> Dict[str, Optional[str]]:
    """Snapshot the propagated knobs (``None`` marks "unset")."""
    return {name: os.environ.get(name) for name in names}


def apply_env(env: Dict[str, Optional[str]]) -> None:
    """Apply a task envelope's knob snapshot to this process."""
    for name, value in env.items():
        if value is None:
            os.environ.pop(name, None)
        else:
            os.environ[name] = str(value)


def _probe_env(names: Sequence[str]) -> Dict[str, Optional[str]]:
    """Report this process's values for ``names`` (picklable test probe)."""
    return {name: os.environ.get(name) for name in names}


def grace_seconds() -> float:
    """How long to wait for a remote worker to (re)join (ENV_GRACE)."""
    raw = os.environ.get(ENV_GRACE, "").strip()
    if not raw:
        return 5.0
    try:
        return max(0.0, float(raw))
    except ValueError:
        warnings.warn(f"{ENV_GRACE}={raw!r} is not a number; using 5",
                      RuntimeWarning, stacklevel=2)
        return 5.0


class Backend:
    """Where batched tasks execute; see the module docstring.

    The executor treats the backend as a future factory: ``submit``
    returns a ``concurrent.futures.Future`` resolving to the task's
    ``List[SimulationResult]`` (or raising what the attempt raised —
    :class:`WorkerLost` for a severed connection).  ``workers()`` bounds
    in-flight submissions so deadlines keep measuring execution, not
    queue wait.  ``evict(future)`` handles a deadline expiry surgically
    where possible (cutting one connection) and returns ``False`` when
    only a full ``reset`` (pool rebuild) can recover.
    """

    name = "?"

    #: Seconds the executor waits for workers to (re)join before
    #: degrading; only meaningful for remote backends.
    grace = 0.0

    def submit(self, task, fault: Optional[str]) -> Future:
        """Queue one task attempt; ``fault`` is its chaos assignment."""
        raise NotImplementedError

    def cancel(self, future: Future) -> None:
        """Withdraw a not-yet-running submission (best effort)."""
        future.cancel()

    def workers(self) -> int:
        """Current execution slots (live connections / pool size)."""
        raise NotImplementedError

    def wait_for_workers(self, count: int = 1,
                         timeout: Optional[float] = None) -> bool:
        """Block until ``count`` workers are available (or timeout)."""
        return self.workers() >= count

    def reap(self, done) -> None:
        """Bookkeeping hook after ``wait()`` returns completed futures."""

    def evict(self, future: Future) -> bool:
        """Expel whatever runs ``future`` after a deadline expiry.

        ``True`` means the eviction was surgical (other workers keep
        running); ``False`` asks the executor to ``reset`` instead.
        """
        return False

    def reset(self, kill: bool = False) -> None:
        """Recover from a broken backend (local: rebuild the pool)."""

    def close(self, kill: bool = False) -> None:
        """Release backend resources (remote workers, sockets)."""


def create(name: str, max_workers: int) -> Optional[Backend]:
    """Build the named backend; ``None`` means "use the local path".

    Raises :class:`ValueError` for an unknown name and
    :class:`BackendBroken` when the backend cannot start; ``run_jobs``
    turns either into a warning plus local fallback, matching how other
    malformed ``REPRO_*`` knobs degrade instead of crashing a run.
    """
    if name in ("", "local"):
        return None
    if name == "tcp":
        from repro.parallel.backend.tcp import TCPBackend

        return TCPBackend.from_env(default_spawn=max_workers)
    raise ValueError(f"unknown backend {name!r} (want local or tcp)")


__all__ = [
    "Backend", "BackendBroken", "ENV_BACKEND", "ENV_GRACE", "ENV_PROPAGATED",
    "ENV_WORKERS", "RemoteTaskError", "WorkerLost", "apply_env",
    "capture_env", "create", "grace_seconds",
]
