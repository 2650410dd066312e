"""Ablations of the design choices DESIGN.md §4 calls out.

Not a paper figure — these isolate the knobs the paper discusses in
prose: confidence-based vs LRU context-directory replacement (§V-D
step 1), pattern-set bucketing (§V-D), the weak-override guard and the
provider-training policy (our documented deviations).
"""

from repro.common.stats import mean
from repro.experiments.common import experiment_workloads, format_table
from repro.experiments.runner import get_result

VARIANTS = {
    "evaluated design (0lat)": "llbp:lat0",
    "LRU CD replacement": "llbp:lat0,lru",
    "no bucketing": "llbp:lat0,unbucketed",
    "no weak-override guard": "llbp:lat0,noguard",
    "exclusive provider training (paper §V-D)": "llbp:lat0,exclusive",
}


def ablation_workloads():
    return experiment_workloads()[:2]


def jobs():
    """Simulation jobs the ablations need, for prewarming."""
    return [(workload, key) for workload in ablation_workloads()
            for key in ("tsl64", *VARIANTS.values())]


def run_ablations(workloads):
    rows = []
    for label, key in VARIANTS.items():
        reductions = []
        for workload in workloads:
            base = get_result(workload, "tsl64")
            reductions.append(get_result(workload, key).mpki_reduction_vs(base))
        rows.append({"variant": label, "mpki_reduction_pct": mean(reductions)})
    return rows


def test_ablations(report):
    rows = run_ablations(ablation_workloads())
    report(
        "Ablations — LLBP design choices (MPKI reduction vs 64K TSL)",
        "each row disables one mechanism of the evaluated design",
        format_table(rows, ["variant", "mpki_reduction_pct"]),
    )
    table = {r["variant"]: r["mpki_reduction_pct"] for r in rows}
    base = table["evaluated design (0lat)"]
    # The evaluated design must be at least competitive with each ablation.
    assert base >= table["no weak-override guard"] - 0.5
    assert base >= table["exclusive provider training (paper §V-D)"] - 0.5
    assert base > 0.0
