"""Branch-trace substrate: branch types, container, trace store.

The simulator is trace-driven, like the paper's artifact: a trace is a
sequence of retired branch records, each carrying the branch PC, its type
(conditional, jump, call, return, or their indirect variants), the resolved
direction and target, and the number of instructions fetched since the
previous branch (so MPKI and the timing model have an instruction base).

Trace statistics (:mod:`repro.traces.stats`) are imported from their
module; no simulation run needs them.
"""

from repro.traces.types import BranchType
from repro.traces.trace import Trace, TraceBuilder
from repro.traces.store import (
    TraceStore,
    TraceStoreError,
    pack_trace,
    read_packed,
    write_packed,
)

__all__ = [
    "BranchType",
    "Trace",
    "TraceBuilder",
    "TraceStore",
    "TraceStoreError",
    "pack_trace",
    "read_packed",
    "write_packed",
]
