"""Structured run telemetry: events, timings, cache and worker metrics.

Opt-in observability for the whole run path.  Set ``REPRO_TELEMETRY`` to
a directory (or pass ``--telemetry`` to ``python -m repro.experiments``)
and every process in the run — the CLI, the simulation engine, the
cached runner, the parallel executor's workers — appends structured
JSON-lines events to it; ``scripts/report.py`` merges and summarizes
them.  With the variable unset, every instrumentation point reduces to
one cheap enabled-check per *phase* (never per branch), so the hot loops
are untouched.

Write side: :func:`emit`, :func:`phase`, :func:`configure`,
:func:`disable`, :func:`enabled`.  Read side:
:func:`~repro.telemetry.report.load_events`,
:func:`~repro.telemetry.report.summarize`,
:func:`~repro.telemetry.report.format_summary`.
"""

from repro.telemetry.collector import (
    ENV_VAR,
    Collector,
    configure,
    disable,
    emit,
    enabled,
    events,
    phase,
    reset,
)
from repro.telemetry.report import (
    format_summary,
    load_events,
    summarize,
    write_summary,
)

__all__ = [
    "ENV_VAR",
    "Collector",
    "configure",
    "disable",
    "emit",
    "enabled",
    "events",
    "phase",
    "reset",
    "format_summary",
    "load_events",
    "summarize",
    "write_summary",
]
