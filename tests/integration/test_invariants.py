"""Cross-module invariants on real generated traces."""

from repro.predictors.registry import make_predictor
from repro.predictors.presets import tsl_64k
from repro.sim.engine import run_simulation
from repro.traces.stats import compute_stats


def test_per_pc_counts_sum_to_totals(tiny_workload_trace):
    result = run_simulation(tiny_workload_trace, tsl_64k())
    assert sum(result.per_pc_mispredictions.values()) == result.mispredictions
    assert sum(result.per_pc_executions.values()) == result.cond_branches
    # Mispredictions never exceed executions per branch.
    for pc, misses in result.per_pc_mispredictions.items():
        assert misses <= result.per_pc_executions[pc]


def test_trace_stats_consistent_with_simulation(tiny_workload_trace):
    stats = compute_stats(tiny_workload_trace)
    result = run_simulation(tiny_workload_trace, tsl_64k(),
                            warmup_instructions=0)
    assert result.cond_branches == stats.num_conditional
    assert result.branches == stats.num_branches
    assert result.instructions == stats.num_instructions


def test_virtualized_llbp_variant(tiny_workload_trace):
    """The §V-A future-work variant: LLBP storage behind L2 latency."""
    dedicated = make_predictor("llbp")
    virtual = make_predictor("llbp:virt")
    assert virtual.config.prefetch_latency_cycles > dedicated.config.prefetch_latency_cycles
    r_ded = run_simulation(tiny_workload_trace, dedicated)
    r_virt = run_simulation(tiny_workload_trace, virtual)
    # Higher fetch latency can only delay pattern availability.
    assert r_virt.extra["llbp_provided"] <= r_ded.extra["llbp_provided"] * 1.05


def test_history_equivalence_across_composites(tiny_workload_trace):
    """The LLBP composite must not disturb the baseline's history: its
    TAGE component sees the same stream as a standalone TSL, so the two
    agree whenever LLBP does not override."""
    standalone = tsl_64k()
    composite = make_predictor("llbp:lat0")

    agree = disagreements = overrides = 0
    for pc, btype, taken_i, target, gap in tiny_workload_trace.iter_tuples():
        taken = taken_i == 1
        if btype == 0:
            a = standalone.predict(pc)
            b = composite.predict(pc)
            if b.overrode or (b.tsl.loop and b.tsl.loop.valid):
                overrides += 1
            elif a.pred == b.pred:
                agree += 1
            else:
                disagreements += 1
            standalone.train(pc, taken, a)
            composite.train(pc, taken, b)
        standalone.update_history(pc, btype, taken, target)
        composite.update_history(pc, btype, taken, target)

    # Training trajectories can drift once LLBP overrides change what
    # TAGE learns, but agreement must dominate.
    assert agree > 10 * max(1, disagreements)
