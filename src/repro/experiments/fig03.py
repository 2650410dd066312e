"""Fig 3: working-set study on the Tomcat-like workload.

(a) Cumulative mispredictions over static branches (sorted by 64K TSL
    misses) for 64K/128K/256K/512K/1M/Inf TSL.  Paper: the top 0.8% of
    branches cause ~40% of misses; capacity doublings shave 6.4%, 7.1%,
    7.3%, 4.1%; Inf reduces ~35%.
(b) Useful patterns per static branch under infinite capacity.  Paper:
    average ~14 patterns; the 100 most-mispredicted branches have >100.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.analysis.working_set import (
    baseline_order,
    top_branch_share,
    useful_patterns_study,
)
from repro.experiments.common import format_table
from repro.experiments.runner import get_result, useful_events

CONFIGS = ("tsl64", "tsl128", "tsl256", "tsl512", "tsl1m", "inf-tsl")
DEFAULT_WORKLOAD = "Tomcat"


def run(workload: str = DEFAULT_WORKLOAD,
        top_fraction: float = 0.008) -> Dict[str, object]:
    baseline = get_result(workload, "tsl64")
    order = baseline_order(baseline)
    top_n = max(1, int(len(order) * top_fraction))

    rows: List[Dict[str, object]] = []
    previous_misses: Optional[int] = None
    for key in CONFIGS:
        result = get_result(workload, key)
        misses = result.mispredictions
        reduction_vs_base = (
            100.0 * (baseline.mispredictions - misses) / baseline.mispredictions
            if baseline.mispredictions else 0.0
        )
        reduction_vs_prev = (
            100.0 * (previous_misses - misses) / previous_misses
            if previous_misses else 0.0
        )
        rows.append({
            "config": key,
            "mpki": result.mpki,
            "misses_vs_64k": misses / baseline.mispredictions if baseline.mispredictions else 0.0,
            "reduction_vs_64k_pct": reduction_vs_base,
            "reduction_vs_prev_pct": reduction_vs_prev,
            "top_branch_share": top_branch_share(result, order, top_n),
        })
        previous_misses = misses

    # Fig 3b: useful patterns per branch under infinite capacity.
    patterns = useful_patterns_study(useful_events(workload), baseline)

    return {
        "workload": workload,
        "static_branches": len(order),
        "top_n": top_n,
        "rows": rows,
        "patterns_mean": patterns.mean,
        "patterns_top100_mean": patterns.top_n_mean(100),
        "patterns_in_order_top20": patterns.counts_in_order[:20],
    }


def format_rows(data: Dict[str, object]) -> str:
    header = (
        f"workload={data['workload']} static_branches={data['static_branches']} "
        f"top_n={data['top_n']}\n"
        f"useful patterns/branch: mean={data['patterns_mean']:.1f} "
        f"top100_mean={data['patterns_top100_mean']:.1f}\n"
    )
    return header + format_table(
        data["rows"],
        ["config", "mpki", "misses_vs_64k", "reduction_vs_64k_pct",
         "reduction_vs_prev_pct", "top_branch_share"],
    )


def jobs():
    """Simulation jobs this figure needs, for parallel prewarming."""
    return [(DEFAULT_WORKLOAD, key) for key in CONFIGS]
