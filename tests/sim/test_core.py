"""Analytic core model."""

import pytest

from repro.sim.core import CoreModel, CoreParams
from repro.sim.results import SimulationResult


def result(instructions=1_000_000, mispredictions=2910):
    return SimulationResult(
        workload="w", predictor="p",
        instructions=instructions, warmup_instructions=0,
        branches=0, cond_branches=0, mispredictions=mispredictions,
    )


def test_paper_calibration_point():
    """~2.9 MPKI must waste ~9% of cycles (Fig 1's average)."""
    model = CoreModel()
    timing = model.timing(result())
    assert 0.07 < timing.wasted_fraction < 0.12


def test_zero_mispredicts_zero_waste():
    timing = CoreModel().timing(result(mispredictions=0))
    assert timing.wasted_fraction == 0.0
    assert timing.cycles == CoreParams().base_cpi * 1_000_000


def test_speedup_direction():
    model = CoreModel()
    slow = model.timing(result(mispredictions=5000))
    fast = model.timing(result(mispredictions=1000))
    assert fast.speedup_over(slow) > 1.0
    assert slow.speedup_over(fast) < 1.0


def test_speedup_identity():
    model = CoreModel()
    t = model.timing(result())
    assert t.speedup_over(t) == pytest.approx(1.0)


def test_counts_validated():
    with pytest.raises(ValueError):
        CoreModel().timing_from_counts(-1, 0)
