"""The process pool and its one owner.

The pool is module state here, built lazily by the first
:meth:`LocalBackend.submit`.  It persists across ``run_jobs`` calls,
is regrown when a later batch asks for more workers, is rebuilt by
:meth:`LocalBackend.reset` after a worker death or a deadline expiry,
and is torn down by :func:`shutdown` (``parallel.shutdown()``).

``run_jobs`` settles every future it submitted before it returns, so
between calls the pool is idle and growing it never strands work.
"""

from __future__ import annotations

from concurrent.futures import Future, ProcessPoolExecutor
from typing import Optional

_pool: Optional[ProcessPoolExecutor] = None
_pool_workers = 0


def _get_pool(workers: int) -> ProcessPoolExecutor:
    """The pool, built (or regrown) to at least ``workers`` workers."""
    global _pool, _pool_workers
    if _pool is None or _pool_workers < workers:
        if _pool is not None:
            _pool.shutdown(wait=True)
        _pool = ProcessPoolExecutor(max_workers=workers)
        _pool_workers = workers
    return _pool


def _discard_pool(kill: bool = False) -> None:
    """Drop the current pool; with ``kill``, SIGKILL its workers first.

    Killing is for hung workers: ``shutdown`` would politely wait for a
    worker that will never answer, so the recovery path terminates the
    processes outright and the next submit builds a fresh pool.
    """
    global _pool, _pool_workers
    pool, _pool, _pool_workers = _pool, None, 0
    if pool is None:
        return
    if kill:
        for proc in list(getattr(pool, "_processes", {}).values()):
            try:
                proc.kill()
            except Exception:
                pass
    pool.shutdown(wait=False)


def shutdown() -> None:
    """Tear down the worker pool (tests; end of a CLI run)."""
    _discard_pool()


class LocalBackend:
    """Run one batch's task attempts on the process pool."""

    def __init__(self, max_workers: int) -> None:
        self._max_workers = max(1, int(max_workers))

    def submit(self, task, fault: Optional[str]) -> Future:
        """Queue one task attempt; ``fault`` is its chaos assignment."""
        # Looked up per call, not bound at import: the pool pickles the
        # entry point by name, so what runs is whatever the executor
        # module holds under that name when the task is submitted.
        from repro.parallel import executor

        return _get_pool(self._max_workers).submit(
            executor._simulate_task, task, fault, True)

    def reset(self, kill: bool = False) -> None:
        """Drop the pool after a failure (killing its workers with
        ``kill``); the next ``submit`` builds a fresh one."""
        _discard_pool(kill=kill)
