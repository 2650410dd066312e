"""Simulation result records."""

from repro.sim.results import SimulationResult


def make(mispredictions=100, instructions=100_000, cond=20_000):
    return SimulationResult(
        workload="w", predictor="p",
        instructions=instructions, warmup_instructions=0,
        branches=25_000, cond_branches=cond, mispredictions=mispredictions,
    )


def test_mpki():
    assert make(mispredictions=250).mpki == 2.5


def test_mpki_zero_instructions():
    assert make(instructions=0).mpki == 0.0


def test_accuracy():
    assert make(mispredictions=200, cond=20_000).accuracy == 0.99


def test_reduction():
    base = make(mispredictions=1000)
    better = make(mispredictions=900)
    assert better.mpki_reduction_vs(base) == 10.0
    assert base.mpki_reduction_vs(better) < 0


def test_reduction_zero_baseline():
    assert make().mpki_reduction_vs(make(mispredictions=0)) == 0.0
