"""Bimodal predictor."""

import pytest

from repro.predictors.bimodal import Bimodal
from repro.sim.engine import run_simulation
from repro.traces.trace import TraceBuilder
from repro.traces.types import BranchType


def test_learns_bias():
    predictor = Bimodal(index_bits=8)
    for _ in range(10):
        predictor.train(0x100, True, predictor.predict(0x100))
    assert predictor.predict(0x100) is True
    for _ in range(10):
        predictor.train(0x100, False, predictor.predict(0x100))
    assert predictor.predict(0x100) is False


def test_hysteresis():
    predictor = Bimodal(index_bits=8)
    for _ in range(5):
        predictor.update(0x100, True)  # saturate at +1
    predictor.update(0x100, False)     # one wrong outcome
    assert predictor.lookup(0x100) is True  # still taken


def test_independent_entries():
    predictor = Bimodal(index_bits=8)
    predictor.update(0x100, True)
    predictor.update(0x100, True)
    assert predictor.lookup(0x100) is True
    assert predictor.lookup(0x104) is True or predictor.lookup(0x104) is False
    predictor.update(0x104, False)
    predictor.update(0x104, False)
    assert predictor.lookup(0x104) is False
    assert predictor.lookup(0x100) is True


def test_aliasing_beyond_index_bits():
    predictor = Bimodal(index_bits=4)
    pc_a, pc_b = 0x0, 0x4 << 4  # same low index bits after masking? ensure distinct
    predictor.update(pc_a, True)
    # pc_a and pc_a + (16 << 2) alias in a 4-bit table
    alias = pc_a + (16 << 2)
    predictor.update(alias, True)
    assert predictor.lookup(pc_a) is True


def test_misprediction_stats():
    """The engines count lookups and mispredictions: a fresh counter
    predicts taken, so one not-taken branch is one misprediction."""
    builder = TraceBuilder("one")
    builder.append(0x100, BranchType.COND, False, 0x104)
    trace = builder.build()
    for engine in ("python", "array"):
        result = run_simulation(trace, Bimodal(index_bits=8),
                                warmup_instructions=0, engine=engine)
        assert (result.cond_branches, result.mispredictions) == (1, 1)


def test_storage_bits():
    assert Bimodal(index_bits=10).storage_bits() == 2 * 1024


def test_invalid_geometry():
    with pytest.raises(ValueError):
        Bimodal(index_bits=0)
