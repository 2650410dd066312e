"""Array engine: bit-identity with the Python oracle, and dispatch.

The array engine (:mod:`repro.sim.array`) is a performance back-end, not
a second implementation of the predictors: it must produce *the same
object* the Python engine produces — every counter, every per-PC dict in
the same insertion order, every ``extra`` entry — and leave the predictor
instance in the same final state (``state_arrays()``).  These tests pin
that equivalence over the full 14-workload catalog for every supported
predictor family, and pin the engine-selection contract
(argument > ``REPRO_ENGINE`` > default, graceful fallback for
unsupported predictors), the exact set of keys that fall back, and a
host-normalised speed floor over the reference loop.
"""

from __future__ import annotations

import importlib
import pkgutil
import time

import numpy as np
import pytest

from repro import telemetry
from repro.predictors.bimodal import Bimodal
from repro.predictors.registry import make_predictor
from repro.sim import array
from repro.sim.engine import (
    DEFAULT_WARMUP_FRACTION,
    ENGINE_ENV_VAR,
    resolve_engine,
    run_simulation,
    run_simulation_reference,
)
from repro.sim.multi import run_simulation_batch
from repro.workloads.catalog import generate_workload, workload_names

#: The families the array engine supports, by registry key.
KEYS = ("gshare", "bimode", "percep", "tsl64", "llbp")

#: Same budget as the golden-MPKI fixtures: small enough that the full
#: 14x3 matrix stays in test-suite territory, long enough to exercise
#: warmup, allocation churn and the LLBP prefetch machinery.
INSTRUCTIONS = 30_000


def _run_both(trace, key):
    """One Python-engine and one array-engine run with fresh predictors."""
    oracle = make_predictor(key)
    subject = make_predictor(key)
    ref = run_simulation(trace, oracle, collect_per_pc=True,
                         engine="python")
    res = run_simulation(trace, subject, collect_per_pc=True,
                         engine="array")
    return oracle, subject, ref, res


def _assert_identical(ref, res):
    """Full result equality, including per-PC dict insertion order."""
    assert ref == res
    assert list(ref.per_pc_mispredictions.items()) == \
        list(res.per_pc_mispredictions.items())
    assert list(ref.per_pc_executions.items()) == \
        list(res.per_pc_executions.items())
    assert ref.extra == res.extra


def _assert_state_equal(oracle, subject):
    a, b = oracle.state_arrays(), subject.state_arrays()
    assert sorted(a) == sorted(b)
    for name in a:
        assert np.array_equal(a[name], b[name]), name


@pytest.mark.parametrize("workload", workload_names())
def test_bit_identity_full_catalog(workload):
    trace = generate_workload(workload, INSTRUCTIONS)
    for key in KEYS:
        oracle, subject, ref, res = _run_both(trace, key)
        _assert_identical(ref, res)
        _assert_state_equal(oracle, subject)


#: A small odd chunk, so chunk boundaries fall everywhere.
ODD_CHUNK = 97


@pytest.mark.parametrize(
    "key", ("tsl64", "llbp", "llbp:lat0", "gshare", "bimode", "percep"))
def test_chunk_boundaries_do_not_change_results(monkeypatch, key):
    """Chunking the fused loops is invisible, even with the warmup split
    landing mid-chunk (the catalog runs stay inside one chunk)."""
    monkeypatch.setattr(array, "_CHUNK", ODD_CHUNK)
    trace = generate_workload("Kafka", INSTRUCTIONS)
    warmup = int(trace.num_instructions * DEFAULT_WARMUP_FRACTION)
    split = int(np.searchsorted(np.cumsum(trace.gaps, dtype=np.int64),
                                warmup, side="right"))
    csplit = int((trace.types[:split] == 0).sum())
    assert split % ODD_CHUNK and csplit % ODD_CHUNK
    assert int((trace.types == 0).sum()) > 10 * ODD_CHUNK
    oracle, subject, ref, res = _run_both(trace, key)
    _assert_identical(ref, res)
    _assert_state_equal(oracle, subject)


def test_supported_families():
    for key in KEYS:
        assert array.unsupported_reason(make_predictor(key)) is None
        assert array.supports(make_predictor(key))
    assert not array.supports(Bimodal())
    assert array.unsupported_reason(Bimodal()) is not None


def test_without_per_pc_collection():
    trace = generate_workload("Kafka", INSTRUCTIONS)
    ref = run_simulation(trace, make_predictor("tsl64"), engine="python")
    res = run_simulation(trace, make_predictor("tsl64"), engine="array")
    assert ref == res
    assert res.per_pc_mispredictions == {}
    assert res.per_pc_executions == {}


def test_explicit_warmup_budget():
    trace = generate_workload("Tomcat", INSTRUCTIONS)
    warmup = INSTRUCTIONS // 5
    ref = run_simulation(trace, make_predictor("llbp"), warmup,
                         collect_per_pc=True, engine="python")
    res = run_simulation(trace, make_predictor("llbp"), warmup,
                         collect_per_pc=True, engine="array")
    _assert_identical(ref, res)


def test_unsupported_predictor_raises_in_direct_call():
    trace = generate_workload("Kafka", INSTRUCTIONS)
    with pytest.raises(ValueError, match="array engine cannot"):
        array.run_simulation_array(trace, Bimodal())


class TestEngineSelection:
    def test_default_is_array(self, monkeypatch):
        monkeypatch.delenv(ENGINE_ENV_VAR, raising=False)
        assert resolve_engine() == "array"
        assert resolve_engine(None) == "array"

    def test_env_selects(self, monkeypatch):
        monkeypatch.setenv(ENGINE_ENV_VAR, "python")
        assert resolve_engine() == "python"

    def test_argument_beats_env(self, monkeypatch):
        monkeypatch.setenv(ENGINE_ENV_VAR, "array")
        assert resolve_engine("python") == "python"

    def test_unknown_engine_rejected(self, monkeypatch):
        with pytest.raises(ValueError, match="unknown simulation engine"):
            resolve_engine("fortran")
        monkeypatch.setenv(ENGINE_ENV_VAR, "fortran")
        with pytest.raises(ValueError, match="unknown simulation engine"):
            resolve_engine()

    def test_env_drives_run_simulation(self, monkeypatch):
        trace = generate_workload("Kafka", INSTRUCTIONS)
        ref = run_simulation(trace, make_predictor("gshare"),
                             collect_per_pc=True, engine="array")

        def unreachable(*args, **kwargs):
            raise AssertionError("REPRO_ENGINE=python ran the array engine")

        monkeypatch.setenv(ENGINE_ENV_VAR, "python")
        monkeypatch.setattr(array, "run_simulation_array", unreachable)
        res = run_simulation(trace, make_predictor("gshare"),
                             collect_per_pc=True)
        _assert_identical(ref, res)


def test_benchmarked_workflows_never_fall_back():
    """Every key fig09 and the characterize sweep simulate runs on the
    array engine, so the default path never drops to the Python loop
    unnoticed."""
    from repro.analysis.characterize import FAMILIES
    from repro.experiments import fig09

    keys = {key for _, key in fig09.jobs()} | set(FAMILIES)
    for key in sorted(keys):
        assert array.unsupported_reason(make_predictor(key)) is None, key


def _fallback_keys(keys):
    return {key for key in keys
            if array.unsupported_reason(make_predictor(key)) is not None}


def test_fallback_traffic_is_pinned():
    """The exact keys that still land on the reference loop: the
    limit-study predictors in the figures, plus the bimodal anchor in
    the explore spaces.  A key that starts falling back fails here; a
    family newly fused into the array engine shrinks these sets."""
    import repro.experiments
    from repro.explore.space import SPACES

    figure_keys = set()
    for info in pkgutil.iter_modules(repro.experiments.__path__):
        if info.name.startswith("fig"):
            module = importlib.import_module(f"repro.experiments.{info.name}")
            figure_keys |= {key for _, key in module.jobs()}
    assert _fallback_keys(figure_keys) == {"inf-tage", "inf-tsl", "perfect"}

    space_keys = set()
    for space in SPACES.values():
        space_keys |= set(space.expand())
    assert _fallback_keys(space_keys) == {
        "bimodal", "inf-tage", "inf-tsl", "perfect"}


def test_unsupported_predictor_falls_back(tmp_path, monkeypatch):
    """``engine="array"`` with an unsupported predictor degrades to the
    Python engine — same answer, plus a ``sim.engine_fallback`` event."""
    trace = generate_workload("Kafka", INSTRUCTIONS)
    ref = run_simulation(trace, Bimodal(), engine="python")
    monkeypatch.setenv("REPRO_TELEMETRY", str(tmp_path / "events"))
    try:
        res = run_simulation(trace, Bimodal(), engine="array")
    finally:
        telemetry.reset()
    assert ref == res
    events = [e for e in telemetry.load_events(tmp_path / "events")
              if e["event"] == "sim.engine_fallback"]
    assert len(events) == 1
    assert events[0]["workload"] == trace.name


def test_batch_matches_serial_python():
    """A batched array run equals member-by-member Python-engine runs."""
    trace = generate_workload("Spring", INSTRUCTIONS)
    refs = [run_simulation(trace, make_predictor(key),
                           collect_per_pc=True, engine="python")
            for key in KEYS]
    results = run_simulation_batch(
        trace, [make_predictor(key) for key in KEYS],
        collect_per_pc=True, engine="array")
    for ref, res in zip(refs, results):
        _assert_identical(ref, res)


#: The default engine must beat the reference loop by at least this
#: factor on the hot families.  Both sides run in one process on one
#: trace, so the host's speed cancels out; a 2-CPU host measured
#: 5-7x for tsl64 and 4.4-6x for llbp.
ARRAY_SPEEDUP_FLOOR = 3.0


def test_array_engine_outruns_the_reference_loop():
    """Host-normalised perf check of the default engine: the best of 3
    alternating array runs against the best of 3 reference runs, after
    one untimed array run has built the hash columns."""
    trace = generate_workload("Kafka", 40_000)
    for key in ("tsl64", "llbp"):
        run_simulation(trace, make_predictor(key), engine="array")
        best = {"array": float("inf"), "reference": float("inf")}
        for _ in range(3):
            for side in best:
                predictor = make_predictor(key)
                start = time.perf_counter()
                if side == "array":
                    run_simulation(trace, predictor, engine="array")
                else:
                    run_simulation_reference(trace, predictor)
                best[side] = min(best[side], time.perf_counter() - start)
        speedup = best["reference"] / best["array"]
        assert speedup >= ARRAY_SPEEDUP_FLOOR, f"{key}: {speedup:.2f}x"
