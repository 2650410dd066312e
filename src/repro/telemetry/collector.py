"""Structured-event collection: the write side of ``repro.telemetry``.

One :class:`Collector` per process appends JSON-object lines to
``events-<pid>.jsonl`` inside the telemetry directory, so concurrent
writers (the parallel executor's workers) never interleave partial
lines; :mod:`repro.telemetry.report` merges the per-process files back
into one event stream ordered by timestamp.

The module-level :func:`emit` / :func:`phase` API is what instrumented
code calls.  It is opt-in via the ``REPRO_TELEMETRY`` environment
variable (a directory path; empty, ``0`` or ``off`` disables) and built
to cost almost nothing when off: instrumentation points are
phase-grained — once per simulation phase, cache lookup or batch, never
per branch — and a disabled :func:`emit` is a dictionary lookup plus an
early return.  The environment is re-read on every call so tests and
the ``--telemetry`` CLI flag can toggle collection at runtime, and the
active collector is keyed by pid so forked worker processes get their
own sink instead of inheriting the parent's file handle.
"""

from __future__ import annotations

import json
import os
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Dict, Iterator, Optional, TextIO

#: Environment variable holding the telemetry directory (opt-in switch).
ENV_VAR = "REPRO_TELEMETRY"

#: Values of ``REPRO_TELEMETRY`` that mean "disabled".
_OFF_VALUES = frozenset({"", "0", "off", "false", "no"})


class Collector:
    """Per-process event collector: appends each event to its JSONL
    file, which :func:`~repro.telemetry.report.load_events` reads back."""

    def __init__(self, directory: Path) -> None:
        self.directory = Path(directory)
        self.pid = os.getpid()
        self._fh: Optional[TextIO] = None

    @property
    def path(self) -> Path:
        return self.directory / f"events-{self.pid}.jsonl"

    def emit(self, event: str, **fields: Any) -> None:
        record: Dict[str, Any] = {"event": event, "ts": time.time(),
                                  "pid": self.pid}
        record.update(fields)
        if self._fh is None:
            self.directory.mkdir(parents=True, exist_ok=True)
            self._fh = open(self.path, "a")
        json.dump(record, self._fh, separators=(",", ":"))
        self._fh.write("\n")
        # One flush per event keeps the file consumable by other
        # processes (report.py, CI) even mid-run; event rate is
        # phase-grained, so this is not a hot path.
        self._fh.flush()

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None


# Active collector, keyed by the (env value, pid) it was created under;
# a change in either — monkeypatched tests, --telemetry, forked workers
# — retires it and builds a fresh one on the next emit.
_active: Optional[Collector] = None
_active_env: Optional[str] = None
_active_pid: Optional[int] = None


def _current() -> Optional[Collector]:
    global _active, _active_env, _active_pid
    env = os.environ.get(ENV_VAR, "")
    pid = os.getpid()
    if env != _active_env or pid != _active_pid:
        if _active is not None and _active_pid == pid:
            _active.close()
        _active_env, _active_pid = env, pid
        if env.strip().lower() in _OFF_VALUES:
            _active = None
        else:
            _active = Collector(Path(env))
    return _active


def enabled() -> bool:
    """True when telemetry collection is active for this process."""
    return _current() is not None


def emit(event: str, **fields: Any) -> None:
    """Record one structured event (no-op when telemetry is off)."""
    collector = _current()
    if collector is not None:
        collector.emit(event, **fields)


@contextmanager
def phase(event: str, **fields: Any) -> Iterator[None]:
    """Time a block and emit ``event`` with a ``seconds`` field."""
    if not enabled():
        yield
        return
    start = time.perf_counter()
    try:
        yield
    finally:
        emit(event, seconds=time.perf_counter() - start, **fields)


def configure(directory: os.PathLike) -> None:
    """Enable telemetry for this process *and its children*.

    Setting the environment variable (rather than module state) is what
    lets child processes inherit the setting.
    """
    os.environ[ENV_VAR] = str(directory)


def reset() -> None:
    """Close and drop the active collector (tests; end of a run)."""
    global _active, _active_env, _active_pid
    if _active is not None:
        _active.close()
    _active = None
    _active_env = None
    _active_pid = None
