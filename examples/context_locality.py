#!/usr/bin/env python3
"""Context locality: why per-context pattern sets work (paper §IV, Fig 5).

Traces useful patterns of the most-mispredicted branches and attributes
them to program contexts of increasing depth W; prints the distribution
of patterns per (branch, context) pair.

Usage:  python examples/context_locality.py [workload] [instructions]
"""

import sys

from repro.analysis.contexts import patterns_per_context_study
from repro.analysis.working_set import traced_inf_tage
from repro.predictors import tsl_64k
from repro.sim import run_simulation
from repro.workloads import generate_workload


def main() -> None:
    workload = sys.argv[1] if len(sys.argv) > 1 else "Tomcat"
    instructions = int(sys.argv[2]) if len(sys.argv) > 2 else 400_000
    trace = generate_workload(workload, instructions)

    print("Measuring the 64K TSL baseline (to rank branches)...")
    baseline = run_simulation(trace, tsl_64k(), collect_per_pc=True)

    print("Tracing useful patterns per context (Inf TAGE)...\n")
    results = patterns_per_context_study(
        trace, traced_inf_tage(trace).useful_events, baseline,
        windows=(0, 2, 4, 8, 16, 32),
        top_branches=128,
    )

    print(f"{'W':>3} {'contexts':>9} {'p50':>6} {'p95':>6} {'max':>7}")
    for res in results:
        print(f"{res.window:>3} {len(res.counts):>9} "
              f"{res.p50:>6} {res.p95:>6} "
              f"{max(res.counts) if res.counts else 0:>7}")

    print("\nPaper (Fig 5): W=0 p50/p95 = 298/2384; W=8 = 2/25; W=32 = 1/9.")
    print("Deep contexts localise even the hardest branches to a handful "
          "of patterns — a 16-pattern set per context suffices.")


if __name__ == "__main__":
    main()
