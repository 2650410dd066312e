"""Branch-trace substrate: record model, container, trace store, statistics.

The simulator is trace-driven, like the paper's artifact: a trace is a
sequence of retired branch records, each carrying the branch PC, its type
(conditional, jump, call, return, or their indirect variants), the resolved
direction and target, and the number of instructions fetched since the
previous branch (so MPKI and the timing model have an instruction base).
"""

from repro.traces.types import BranchType, BranchRecord, is_unconditional, is_call, is_return
from repro.traces.trace import Trace, TraceBuilder
from repro.traces.stats import TraceStats, compute_stats
from repro.traces.store import (
    TraceStore,
    TraceStoreError,
    pack_trace,
    read_packed,
    write_packed,
)

__all__ = [
    "BranchType",
    "BranchRecord",
    "is_unconditional",
    "is_call",
    "is_return",
    "Trace",
    "TraceBuilder",
    "TraceStats",
    "compute_stats",
    "TraceStore",
    "TraceStoreError",
    "pack_trace",
    "read_packed",
    "write_packed",
]
