"""Integration: the paper's qualitative claims must hold end-to-end on a
small-but-real workload trace.

These are the invariants the whole reproduction rests on:

* more capacity never hurts much and infinite capacity helps,
* LLBP lands between the baseline and the big-capacity limit,
* the perfect predictor bounds everything,
* results are bit-deterministic.
"""

import pytest

from repro.llbp.config import LLBPConfig
from repro.llbp.predictor import LLBPTageScL
from repro.predictors.bimodal import Bimodal
from repro.predictors.perfect import PerfectPredictor
from repro.predictors.presets import tage_infinite, tsl_64k, tsl_scaled
from repro.sim.engine import run_simulation
from repro.workloads.catalog import generate_workload


@pytest.fixture(scope="module")
def trace(tmp_path_factory):
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("REPRO_CACHE_DIR", str(tmp_path_factory.mktemp("cache")))
        return generate_workload("NodeApp", 250_000)


@pytest.fixture(scope="module")
def results(trace):
    out = {
        "bimodal": run_simulation(trace, Bimodal()),
        "64k": run_simulation(trace, tsl_64k()),
        "512k": run_simulation(trace, tsl_scaled(8)),
        "inf": run_simulation(trace, tage_infinite()),
        "llbp0": run_simulation(trace, LLBPTageScL(LLBPConfig().zero_latency())),
        "llbp": run_simulation(trace, LLBPTageScL(LLBPConfig())),
        "perfect": run_simulation(trace, PerfectPredictor()),
    }
    return out


def test_tsl_beats_bimodal(results):
    assert results["64k"].mpki < results["bimodal"].mpki * 0.7


def test_capacity_helps(results):
    assert results["512k"].mpki < results["64k"].mpki
    assert results["inf"].mpki < results["64k"].mpki


def test_llbp_improves_baseline(results):
    assert results["llbp0"].mpki < results["64k"].mpki


def test_llbp_between_baseline_and_512k(results):
    """Fig 9's headline shape: 0 < LLBP gain < 512K-TSL gain."""
    llbp_red = results["llbp0"].mpki_reduction_vs(results["64k"])
    big_red = results["512k"].mpki_reduction_vs(results["64k"])
    assert 0 < llbp_red < big_red


def test_timed_llbp_close_to_zero_latency(results):
    """Prefetching must hide most of the access latency (§VII-A)."""
    gap = results["llbp"].mpki - results["llbp0"].mpki
    assert gap < 0.2 * results["64k"].mpki


def test_perfect_is_lower_bound(results):
    assert results["perfect"].mispredictions == 0
    for key in ("bimodal", "64k", "512k", "inf", "llbp"):
        assert results[key].mispredictions > 0


def test_llbp_provides_meaningful_coverage(results):
    extra = results["llbp"].extra
    provided = extra["llbp_provided"] / extra["predictions"]
    assert 0.02 < provided < 0.6  # paper: 14.8%


def test_determinism(trace):
    a = run_simulation(trace, tsl_64k())
    b = run_simulation(trace, tsl_64k())
    assert a.mispredictions == b.mispredictions
