"""Property-based cross-cutting invariants (hypothesis)."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.llbp.pattern import PatternSet
from repro.predictors.bimodal import Bimodal
from repro.predictors.tage import Tage, TageConfig
from repro.sim.engine import run_simulation
from repro.traces.trace import TraceBuilder
from repro.traces.types import BranchType


def random_trace(steps, seed_bits):
    builder = TraceBuilder("prop")
    for i, (pc_pick, bt_pick, taken) in enumerate(steps):
        pc = 0x1000 + 4 * pc_pick
        bt = [BranchType.COND, BranchType.COND, BranchType.CALL,
              BranchType.RET, BranchType.JUMP][bt_pick]
        builder.append(pc, bt, True if bt != BranchType.COND else taken,
                       pc + 16, 1 + (i % 5))
    return builder.build()


steps_strategy = st.lists(
    st.tuples(st.integers(0, 30), st.integers(0, 4), st.booleans()),
    min_size=20, max_size=200,
)


@given(steps_strategy)
@settings(max_examples=25, deadline=None)
def test_engine_counts_are_consistent(steps):
    trace = random_trace(steps, 0)
    result = run_simulation(trace, Bimodal(), warmup_instructions=0)
    assert result.branches == len(trace)
    assert result.cond_branches == trace.num_conditional
    assert result.mispredictions <= result.cond_branches
    assert sum(result.per_pc_mispredictions.values()) == result.mispredictions
    assert result.instructions == trace.num_instructions


@given(steps_strategy)
@settings(max_examples=15, deadline=None)
def test_tage_is_deterministic_on_any_trace(steps):
    trace = random_trace(steps, 0)
    config = TageConfig(history_lengths=(4, 8, 16), index_bits=5,
                        tag_bits=8, bimodal_index_bits=6)
    # A bare TAGE has no fused loop: only the Python engine runs it.
    a = run_simulation(trace, Tage(config), warmup_instructions=0,
                       engine="python")
    b = run_simulation(trace, Tage(config), warmup_instructions=0,
                       engine="python")
    assert a.mispredictions == b.mispredictions


@given(st.lists(st.tuples(st.integers(0, 15), st.integers(0, 0x1FFF),
                          st.booleans()),
                min_size=1, max_size=80))
@settings(max_examples=40)
def test_pattern_set_capacity_and_order(ops):
    """However patterns are allocated, capacity and sort order hold."""
    ps = PatternSet(size=16, bucket_size=4)
    for hash_slot, tag, taken in ops:
        ps.allocate(hash_slot, tag, taken)
        assert ps.num_valid() <= 16
        assert ps.is_sorted()
        # Every valid pattern sits in the bucket its hash slot demands.
        for i in range(16):
            if ps.valid[i]:
                assert ps.hslots[i] // 4 == i // 4
