"""Trace-driven simulation engine."""

import warnings

import pytest

from repro.predictors.base import BranchPredictor
from repro.predictors.bimodal import Bimodal
from repro.predictors.perfect import PerfectPredictor
from repro.predictors.registry import make_predictor
from repro.sim.engine import run_simulation, run_simulation_reference
from repro.traces.trace import TraceBuilder
from repro.traces.types import BranchType


def make_trace(n=90, gap=10):
    builder = TraceBuilder("engine")
    for i in range(n):
        builder.append(0x100, BranchType.COND, i % 2 == 0, 0x200, gap)
        builder.append(0x200, BranchType.JUMP, True, 0x300, gap)
    return builder.build()


class CountingPredictor(BranchPredictor):
    """Records the driving protocol; only the Python engine runs it."""

    name = "counting"

    def __init__(self):
        super().__init__()
        self.predict_calls = 0
        self.train_calls = 0
        self.history_calls = 0
        self.advanced = 0

    def predict(self, pc):
        self.predict_calls += 1
        return True

    def train(self, pc, taken, meta):
        self.train_calls += 1

    def update_history(self, pc, branch_type, taken, target):
        self.history_calls += 1

    def advance(self, instructions):
        self.advanced += instructions


def test_driving_protocol():
    trace = make_trace(n=50)
    predictor = CountingPredictor()
    run_simulation(trace, predictor, warmup_instructions=0, engine="python")
    assert predictor.predict_calls == 50          # conditionals only
    assert predictor.train_calls == 50
    assert predictor.history_calls == 100         # every branch
    assert predictor.advanced == trace.num_instructions


def test_warmup_excluded_from_measurement():
    trace = make_trace(n=90, gap=10)
    total = trace.num_instructions
    result = run_simulation(trace, CountingPredictor(),
                            warmup_instructions=total // 3, engine="python")
    assert result.instructions < total
    assert result.instructions + result.warmup_instructions == total
    # CountingPredictor always predicts taken; half the outcomes are False.
    assert abs(result.mispredictions - result.cond_branches / 2) <= 1


def test_default_warmup_is_one_third():
    trace = make_trace(n=90)
    result = run_simulation(trace, CountingPredictor(), engine="python")
    assert abs(result.warmup_instructions - trace.num_instructions / 3) < 25


def test_perfect_predictor_zero_mpki():
    result = run_simulation(make_trace(), PerfectPredictor())
    assert result.mispredictions == 0


def test_per_pc_collection():
    trace = make_trace(n=30)
    result = run_simulation(trace, CountingPredictor(), warmup_instructions=0,
                            engine="python")
    assert result.per_pc_executions == {0x100: 30}
    assert result.per_pc_mispredictions == {0x100: 15}


def test_extra_stats_copied():
    """A predictor's ``run_counters()`` land in ``result.extra``."""
    predictor = CountingPredictor()
    predictor.run_counters = lambda: {"custom": predictor.predict_calls}
    result = run_simulation(make_trace(), predictor, engine="python")
    assert result.extra == {"custom": 90}


def test_bimodal_end_to_end():
    result = run_simulation(make_trace(), Bimodal(), warmup_instructions=0)
    assert result.cond_branches > 0
    assert 0 <= result.accuracy <= 1


def test_warmup_consuming_whole_trace_warns():
    """Regression: a warmup budget >= the trace length used to yield an
    all-zero result silently; it must now warn that nothing was measured."""
    trace = make_trace(n=20)
    with pytest.warns(RuntimeWarning, match="consumed the entire"):
        result = run_simulation(trace, CountingPredictor(),
                                warmup_instructions=trace.num_instructions,
                                engine="python")
    assert result.branches == 0
    assert result.cond_branches == 0
    assert result.mispredictions == 0


def test_normal_warmup_does_not_warn():
    trace = make_trace(n=20)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        run_simulation(trace, CountingPredictor(), engine="python")


@pytest.mark.parametrize("key", [
    "bimodal", "gshare", "tsl64", "llbp", "perfect",
])
def test_specialized_loops_match_reference(tiny_workload_trace, key):
    """The array engine's fused loops are an optimization only: every
    predictor family must produce a bit-identical SimulationResult to the
    generic reference loop, including per-PC counters and extra stats."""
    fast = run_simulation(tiny_workload_trace, make_predictor(key),
                          engine="array")
    slow = run_simulation_reference(tiny_workload_trace,
                                    make_predictor(key))
    assert fast == slow


def test_specialized_loop_fills_per_pc_maps(tiny_workload_trace):
    fast = run_simulation(tiny_workload_trace, make_predictor("gshare"),
                          engine="array")
    assert fast.cond_branches > 0
    assert sum(fast.per_pc_executions.values()) == fast.cond_branches
    assert sum(fast.per_pc_mispredictions.values()) == fast.mispredictions
