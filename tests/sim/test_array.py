"""Array engine: bit-identity with the Python oracle, and dispatch.

The array engine (:mod:`repro.sim.array`) is a performance back-end, not
a second implementation of the predictors: it must produce *the same
object* the Python engine produces — every counter, every per-PC dict in
the same insertion order, every ``extra`` entry — and leave the predictor
instance in the same final state (``state_arrays()``).  These tests pin
that equivalence over the full 14-workload catalog for every supported
predictor family, and pin the engine-selection contract
(argument > ``REPRO_ENGINE`` > default; an unsupported predictor runs
only on the Python engine), that every figure and explore key is fused,
and a host-normalised speed floor over the reference loop.
"""

from __future__ import annotations

import importlib
import pkgutil
import time

import numpy as np
import pytest

from repro.analysis.working_set import traced_inf_tage
from repro.predictors import registry
from repro.predictors.base import BranchPredictor
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
from repro.traces.trace import Trace
from repro.workloads.catalog import generate_workload, workload_names

#: The families the array engine supports, by registry key
#: (``perfect`` has no table state and is checked on results alone).
KEYS = ("bimodal", "gshare", "bimode", "percep", "tsl64", "llbp",
        "inf-tage", "inf-tsl")


class Unfused(BranchPredictor):
    """A predictor the array engine has no fused loop for."""

    name = "unfused"

    def predict(self, pc):
        return pc & 4 == 0

    def train(self, pc, taken, meta):
        pass


def traced():
    """The Inf TAGE of Figs 3b and 5, with useful-pattern tracing on."""
    predictor = make_predictor("inf-tage")
    predictor.tage.trace_useful = True
    return predictor


#: Same budget as the golden-MPKI fixtures: small enough that the full
#: 14x3 matrix stays in test-suite territory, long enough to exercise
#: warmup, allocation churn and the LLBP prefetch machinery.
INSTRUCTIONS = 30_000


def _make(key):
    return traced() if key == "traced" else make_predictor(key)


def _run_both(trace, key, warmup=None):
    """One Python-engine and one array-engine run with fresh predictors."""
    oracle = _make(key)
    subject = _make(key)
    ref = run_simulation(trace, oracle, warmup, engine="python")
    res = run_simulation(trace, subject, warmup, engine="array")
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
    for key in KEYS + ("traced",):
        oracle, subject, ref, res = _run_both(trace, key)
        _assert_identical(ref, res)
        _assert_state_equal(oracle, subject)
    _, _, ref, res = _run_both(trace, "perfect")
    _assert_identical(ref, res)


def test_traced_useful_events_match_across_engines(monkeypatch):
    """The events Figs 3b and 5 read are the same on both engines, and
    their ordinals number the trace's conditional branches."""
    trace = generate_workload("Tomcat", INSTRUCTIONS)
    runs = {}
    for engine in ("python", "array"):
        monkeypatch.setenv(ENGINE_ENV_VAR, engine)
        runs[engine] = traced_inf_tage(trace, INSTRUCTIONS // 3)
    python, fused = runs["python"], runs["array"]
    assert python.useful_events == fused.useful_events
    assert python.useful_events
    cond_pcs = trace.pcs[trace.types == 0].tolist()
    assert python.updates == fused.updates == len(cond_pcs)
    for ordinal, pc, _pattern in python.useful_events:
        assert cond_pcs[ordinal] == pc


#: LLBP context geometries the catalog run does not reach: a window whose
#: terms land past bit 63, a one-PC window, no prefetch distance,
#: conditional branches pushing, and a deep distance over calls/returns;
#: then an LRU directory, whose prefetch issue is a call, not inlined.
CONTEXT_KEYS = ("llbp:w=40", "llbp:w=1", "llbp:d=0", "llbp:src=all",
                "llbp:src=callret,d=8", "llbp:lru")


@pytest.mark.parametrize("workload", ("Kafka", "adv:xor"))
@pytest.mark.parametrize("key", CONTEXT_KEYS)
def test_bit_identity_context_geometries(workload, key):
    """adv:xor mispredicts often, so its runs drive the squash path that
    re-issues every CID of the prefetch pipeline."""
    trace = generate_workload(workload, INSTRUCTIONS)
    oracle, subject, ref, res = _run_both(trace, key)
    _assert_identical(ref, res)
    _assert_state_equal(oracle, subject)


#: A small odd chunk, so chunk boundaries fall everywhere.
ODD_CHUNK = 97


@pytest.mark.parametrize(
    "key", ("tsl64", "llbp", "llbp:lat0", "gshare", "bimode", "percep",
            "inf-tage", "inf-tsl", "traced"))
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


#: Every fused loop family, each LLBP timing mode and the traced Inf TAGE:
#: the keys whose warmup/measured split the edge tests below move.
SPLIT_KEYS = ("tsl64", "llbp", "llbp:lat0", "gshare", "bimodal", "bimode",
              "percep", "inf-tage", "traced")

#: Short traces suffice: the edges are about where the split falls.
EDGE_INSTRUCTIONS = 10_000


def _assert_engines_agree(trace, key, warmup=None):
    oracle, subject, ref, res = _run_both(trace, key, warmup)
    _assert_identical(ref, res)
    _assert_state_equal(oracle, subject)
    return res


@pytest.mark.parametrize("key", SPLIT_KEYS)
def test_no_warmup(key):
    """Every row is measured: the skeleton's warmup pass is empty."""
    trace = generate_workload("Kafka", EDGE_INSTRUCTIONS)
    res = _assert_engines_agree(trace, key, 0)
    assert res.warmup_instructions == 0
    assert res.cond_branches == trace.num_conditional


@pytest.mark.parametrize("key", SPLIT_KEYS)
@pytest.mark.parametrize("past", (0, 1_000))
def test_warmup_at_or_past_the_trace(key, past):
    """An empty measured region: both engines warn and measure nothing."""
    trace = generate_workload("Kafka", EDGE_INSTRUCTIONS)
    warmup = trace.num_instructions + past
    with pytest.warns(RuntimeWarning) as record:
        res = _assert_engines_agree(trace, key, warmup)
    assert sum("consumed the entire" in str(w.message) for w in record) == 2
    assert (res.branches, res.cond_branches, res.mispredictions) == (0, 0, 0)
    assert res.per_pc_executions == {}


#: A chunk small enough that some record split and its conditional split
#: both fall exactly on a chunk boundary.
BOUNDARY_CHUNK = 16


@pytest.mark.parametrize("key", SPLIT_KEYS)
def test_split_on_a_chunk_boundary(monkeypatch, key):
    """The last warmup row ends a chunk and the first measured row starts
    one, for the conditional rows and (LLBP) the record rows alike."""
    monkeypatch.setattr(array, "_CHUNK", BOUNDARY_CHUNK)
    trace = generate_workload("Kafka", EDGE_INSTRUCTIONS)
    conds = np.concatenate(([0], np.cumsum(trace.types == 0)))
    aligned = [split for split in range(BOUNDARY_CHUNK, len(trace),
                                        BOUNDARY_CHUNK)
               if conds[split] % BOUNDARY_CHUNK == 0]
    split = aligned[len(aligned) // 2]
    warmup = int(np.cumsum(trace.gaps, dtype=np.int64)[split - 1])
    res = _assert_engines_agree(trace, key, warmup)
    assert res.warmup_instructions == warmup
    assert res.cond_branches == trace.num_conditional - conds[split]


@pytest.mark.parametrize("key", SPLIT_KEYS)
def test_trace_without_conditional_branches(key):
    """Only unconditional records: the conditional loops run no row, and
    LLBP still advances its clock and issues prefetches on every push."""
    kafka = generate_workload("Kafka", EDGE_INSTRUCTIONS)
    keep = kafka.types != 0
    trace = Trace(kafka.pcs[keep], kafka.types[keep], kafka.takens[keep],
                  kafka.targets[keep], kafka.gaps[keep], name="no-cond")
    assert len(trace) and trace.num_conditional == 0
    res = _assert_engines_agree(trace, key)
    assert res.branches and (res.cond_branches, res.mispredictions) == (0, 0)


def test_each_body_is_emitted_once(monkeypatch):
    """Warmup and measured rows share one copy of each family's per-branch
    body: its misprediction count appears once in the generated source."""
    sources = []
    compile_source = array._exec_sim

    def capture(lines, name, namespace):
        sources.append(("\n".join(lines), name))
        return compile_source(lines, name, namespace)

    monkeypatch.setattr(array, "_exec_sim", capture)
    trace = generate_workload("Kafka", EDGE_INSTRUCTIONS)
    for key in KEYS + ("llbp:lat0", "traced"):
        run_simulation(trace, _make(key), engine="array")
    assert {name for _, name in sources} == {
        "tsl", "llbp", "gshare", "bimode", "percep"}
    for source, name in sources:
        assert source.count("measured_misp += 1") == 1, name


#: One valid spelling per parameter token of each parameterised family.
PARAM_SAMPLES = {
    ("llbp", "w"): "llbp:w=16",
    ("llbp", "d"): "llbp:d=2",
    ("llbp", "src"): "llbp:src=callret",
    ("llbp", "cd_bits"): "llbp:cd_bits=8",
    ("llbp", "ps"): "llbp:unbucketed,ps=8",
    ("llbp", "pb"): "llbp:pb=32",
    ("llbp", "lat"): "llbp:lat=9",
    ("tsl", "x"): "tsl:x=2",
    ("tsl", "t"): "tsl:t=11",
    ("tsl", "tag"): "tsl:tag=10",
    ("tsl", "sc"): "tsl:sc=9",
    ("bimode", "c"): "bimode:c=12",
    ("bimode", "d"): "bimode:d=12",
    ("bimode", "h"): "bimode:h=10",
    ("percep", "t"): "percep:t=5",
    ("percep", "r"): "percep:r=9",
    ("percep", "w"): "percep:w=6",
    ("percep", "h"): "percep:h=28",
    ("percep", "theta"): "percep:theta=40",
}


def test_supported_families():
    """Every key the registry grammar can spell runs fused: each plain
    key, each ``llbp:`` flag and one spelling per parameter token."""
    families = registry._FAMILIES
    keys = list(registry.known_keys())
    keys += [f"llbp:{flag}" for flag in families["llbp"].flags]
    keys += [PARAM_SAMPLES[name, token]
             for name, family in families.items() for token in family.params]
    for key in keys:
        assert array.unsupported_reason(make_predictor(key)) is None, key
    assert array.unsupported_reason(traced()) is None
    assert array.unsupported_reason(Unfused()) is not None


def test_explicit_warmup_budget():
    trace = generate_workload("Tomcat", INSTRUCTIONS)
    warmup = INSTRUCTIONS // 5
    ref = run_simulation(trace, make_predictor("llbp"), warmup,
                         engine="python")
    res = run_simulation(trace, make_predictor("llbp"), warmup,
                         engine="array")
    _assert_identical(ref, res)


def test_unsupported_predictor_raises_in_direct_call():
    trace = generate_workload("Kafka", INSTRUCTIONS)
    with pytest.raises(ValueError, match="array engine cannot"):
        array.run_simulation_array(trace, Unfused())


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
        ref = run_simulation(trace, make_predictor("gshare"), engine="array")

        def unreachable(*args, **kwargs):
            raise AssertionError("REPRO_ENGINE=python ran the array engine")

        monkeypatch.setenv(ENGINE_ENV_VAR, "python")
        monkeypatch.setattr(array, "run_simulation_array", unreachable)
        res = run_simulation(trace, make_predictor("gshare"))
        _assert_identical(ref, res)


def _figure_keys():
    import repro.experiments

    keys = set()
    for info in pkgutil.iter_modules(repro.experiments.__path__):
        if info.name.startswith("fig"):
            module = importlib.import_module(f"repro.experiments.{info.name}")
            keys |= {key for _, key in module.jobs()}
    return keys


def _space_keys():
    from repro.explore.space import SPACES

    keys = set()
    for space in SPACES.values():
        keys |= set(space.expand())
    return keys


def test_benchmarked_workflows_never_fall_back():
    """Every key any figure, the characterize sweep or an explore space
    simulates runs on the array engine, so the default engine never
    refuses one."""
    from repro.analysis.characterize import FAMILIES

    keys = _figure_keys() | _space_keys() | set(FAMILIES)
    for key in sorted(keys):
        assert array.unsupported_reason(make_predictor(key)) is None, key
    # Figs 3b and 5 build their traced Inf TAGE outside the registry.
    assert array.unsupported_reason(traced()) is None


def test_unsupported_predictor_runs_only_on_the_python_engine():
    """``engine="array"`` refuses a predictor it has no fused loop for,
    with the error of a direct call; ``engine="python"`` runs it."""
    trace = generate_workload("Kafka", INSTRUCTIONS)
    with pytest.raises(ValueError, match="array engine cannot"):
        run_simulation(trace, Unfused(), engine="array")
    result = run_simulation(trace, Unfused(), engine="python")
    assert result.cond_branches > 0 and result.mispredictions > 0


def test_batch_matches_serial_python():
    """A batched array run equals member-by-member Python-engine runs."""
    trace = generate_workload("Spring", INSTRUCTIONS)
    refs = [run_simulation(trace, make_predictor(key), engine="python")
            for key in KEYS]
    results = run_simulation_batch(
        trace, [make_predictor(key) for key in KEYS], engine="array")
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
