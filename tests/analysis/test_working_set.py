"""Working-set analysis (Fig 3 machinery)."""

from repro.analysis.working_set import (
    baseline_order,
    cumulative_misprediction_fractions,
    top_branch_share,
    traced_inf_tage,
    useful_patterns_study,
)
from repro.sim.results import SimulationResult


def fake_result(misp, execs=None):
    return SimulationResult(
        workload="w", predictor="p",
        instructions=10_000, warmup_instructions=0,
        branches=0, cond_branches=0,
        mispredictions=sum(misp.values()),
        per_pc_mispredictions=dict(misp),
        per_pc_executions=dict(execs or {pc: 10 for pc in misp}),
    )


def test_baseline_order_sorts_by_misses():
    result = fake_result({0x1: 5, 0x2: 50, 0x3: 20})
    assert baseline_order(result) == [0x2, 0x3, 0x1]


def test_order_includes_never_mispredicted():
    result = fake_result({0x1: 5}, execs={0x1: 10, 0x2: 10})
    order = baseline_order(result)
    assert set(order) == {0x1, 0x2}
    assert order[0] == 0x1


def test_cumulative_fractions():
    base = fake_result({0x1: 60, 0x2: 40})
    order = baseline_order(base)
    curve = cumulative_misprediction_fractions(base, order, base)
    assert curve == [0.6, 1.0]


def test_cumulative_normalised_to_baseline():
    base = fake_result({0x1: 60, 0x2: 40})
    better = fake_result({0x1: 30, 0x2: 20})
    order = baseline_order(base)
    curve = cumulative_misprediction_fractions(better, order, base)
    assert curve[-1] == 0.5  # half the baseline's misses remain


def test_top_branch_share():
    result = fake_result({0x1: 80, 0x2: 10, 0x3: 10})
    order = baseline_order(result)
    assert top_branch_share(result, order, 1) == 0.8


def test_useful_patterns_study_on_small_trace(tiny_workload_trace):
    from repro.predictors.presets import tsl_64k
    from repro.sim.engine import run_simulation

    baseline = run_simulation(tiny_workload_trace, tsl_64k(), collect_per_pc=True)
    events = traced_inf_tage(tiny_workload_trace).useful_events
    study = useful_patterns_study(events, baseline)
    assert study.counts_by_pc
    assert study.mean >= 1.0
    # Hot branches need at least as many patterns as the average branch.
    assert study.top_n_mean(10) >= study.mean * 0.5
