"""Fig 5: patterns per context vs context depth W.

Paper (top-128 most-mispredicted branches): W=0 p50=298/p95=2384;
W=8 p50=2/p95=25; W=32 p50=1/p95=9 — deepening the context slices the
pattern space by orders of magnitude.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

from repro.analysis.contexts import patterns_per_context_study
from repro.experiments.common import experiment_instructions, format_table
from repro.experiments.runner import get_result, useful_events
from repro.workloads.catalog import generate_workload

DEFAULT_WINDOWS = (0, 2, 4, 8, 16, 32)
DEFAULT_WORKLOAD = "Tomcat"


def run(workload: str = DEFAULT_WORKLOAD,
        windows: Sequence[int] = DEFAULT_WINDOWS,
        top_branches: int = 128) -> List[Dict[str, object]]:
    instructions = experiment_instructions()
    baseline = get_result(workload, "tsl64")
    trace = generate_workload(workload, instructions)
    results = patterns_per_context_study(
        trace, useful_events(workload, instructions), baseline,
        windows=windows,
        top_branches=top_branches,
    )
    rows: List[Dict[str, object]] = []
    for res in results:
        rows.append({
            "W": res.window,
            "contexts": len(res.counts),
            "p50": res.p50,
            "p95": res.p95,
            "max": max(res.counts) if res.counts else 0,
        })
    return rows


def format_rows(rows: List[Dict[str, object]]) -> str:
    return format_table(rows, ["W", "contexts", "p50", "p95", "max"])


def jobs():
    """Simulation jobs this figure needs, for parallel prewarming."""
    return [(DEFAULT_WORKLOAD, "tsl64")]
