#!/usr/bin/env python3
"""Capacity study: how far can more TAGE storage go? (paper §II-C/D)

Runs the capacity ladder — 64K to 1M TSL plus the infinite-capacity
limit — on one workload and reports MPKI, the misprediction share of
the hottest branches, and useful patterns per branch (Fig 2 + Fig 3).

Usage:  python examples/capacity_study.py [workload] [instructions]
"""

import sys

from repro.analysis.working_set import (
    baseline_order,
    top_branch_share,
    traced_inf_tage,
    useful_patterns_study,
)
from repro.predictors import tage_infinite, tsl_64k, tsl_scaled
from repro.sim import run_simulation
from repro.workloads import generate_workload


def main() -> None:
    workload = sys.argv[1] if len(sys.argv) > 1 else "Tomcat"
    instructions = int(sys.argv[2]) if len(sys.argv) > 2 else 400_000
    trace = generate_workload(workload, instructions)
    print(f"Workload {workload}: {len(trace)} branches\n")

    ladder = [
        ("64K TSL", tsl_64k),
        ("128K TSL", lambda: tsl_scaled(2)),
        ("256K TSL", lambda: tsl_scaled(4)),
        ("512K TSL", lambda: tsl_scaled(8)),
        ("1M TSL", lambda: tsl_scaled(16)),
        ("Inf TAGE", tage_infinite),
    ]

    baseline = None
    order = None
    for name, factory in ladder:
        result = run_simulation(trace, factory(), collect_per_pc=True)
        if baseline is None:
            baseline = result
            order = baseline_order(baseline)
        top = max(1, len(order) // 125)  # the paper's "top 0.8%"
        share = top_branch_share(result, order, top)
        reduction = result.mpki_reduction_vs(baseline)
        print(f"{name:10s} MPKI={result.mpki:6.3f}  "
              f"reduction={reduction:5.1f}%  "
              f"top-0.8%-branches share={share:5.1%}")

    print("\nUseful patterns per branch under infinite capacity (Fig 3b):")
    study = useful_patterns_study(traced_inf_tage(trace).useful_events,
                                  baseline)
    print(f"  mean = {study.mean:.1f}   "
          f"top-100 most-mispredicted = {study.top_n_mean(100):.1f}")
    print("Paper: mean ~14, top-100 >100 — the skew that motivates "
          "context-keyed storage.")


if __name__ == "__main__":
    main()
