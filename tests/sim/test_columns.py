"""Precomputed hash/fold columns == the predictors' own rolling hashes.

The array engine's whole premise is that every per-branch hash is a pure
function of the trace stream and the predictor geometry — independent of
table contents, predictions and training.  These properties pin that:

* the closed-form fold of :class:`repro.sim.columns.HistoryFolds` equals
  ``fold_bits`` and the incremental ``FoldedHistory`` register at every
  point of a random bit stream;
* the vectorised gshare index column equals a scalar replay through the
  real predictor's ``_index``/``update_history``;
* the TAGE/SC column matrix computed from the trace alone equals the
  values a *live, training* simulation computes at every conditional
  branch (captured by spying on ``Tage.lookup`` and
  ``StatisticalCorrector.lookup`` mid-run), over preset and explore
  geometries;
* ditto for the LLBP slot-tag matrix, wherever the live predictor
  computes slot tags at all;
* the closed-form CID column equals a live ``RollingContextRegister``'s
  ``cid_at(d)`` after every push, at every distance, for any window,
  distance, context source and starting contents;
* the column call's peak memory stays a small multiple of what it
  returns.
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

try:
    from hypothesis import example, given, settings
    from hypothesis import strategies as st
except ImportError:  # pragma: no cover - hypothesis is a dev extra
    pytest.skip("hypothesis not installed", allow_module_level=True)

from repro.common.bitops import FoldedHistory, fold_bits
from repro.llbp.config import ContextSource, LLBPConfig
from repro.llbp.rcr import RollingContextRegister
from repro.predictors.gshare import GShare
from repro.predictors.registry import make_predictor
from repro.sim import columns
from repro.sim.engine import run_simulation
from repro.traces.store import pack_trace
from repro.traces.trace import TraceBuilder
from repro.traces.types import BranchType
from repro.workloads.catalog import generate_workload

#: (pc-slot, branch type, taken) tuples; a handful of distinct PCs is
#: enough to drive aliasing in every fold width the predictors use.
branch_lists = st.lists(
    st.tuples(st.integers(0, 7),
              st.sampled_from([BranchType.COND, BranchType.JUMP,
                               BranchType.CALL, BranchType.RET]),
              st.booleans()),
    min_size=1, max_size=120)


def build_trace(branches):
    builder = TraceBuilder("prop")
    for slot, btype, taken in branches:
        pc = 0x4000 + 16 * slot
        builder.append(pc, btype, taken, pc ^ 0x1F0, 3)
    return builder.build()


@given(branch_lists)
def test_gshare_column_matches_scalar_replay(branches):
    trace = build_trace(branches)
    predictor = GShare()
    expected = []
    for pc, btype, taken, target, _gap in trace.iter_tuples():
        if btype == 0:
            expected.append(predictor._index(pc))
        predictor.update_history(pc, btype, taken == 1, target)
    column = columns.gshare_index_column(
        trace, predictor.index_bits, predictor.history_bits)
    assert column.tolist() == expected


#: The ``tsl64``/``llbp`` baselines plus geometries (a preset and the
#: explore grammar's) that no array identity test runs.
TSL_KEYS = ("tsl64", "tsl:x=2,t=11", "tsl:x=16,t=16", "tsl1m")
LLBP_KEYS = ("llbp", "llbp:unbucketed,ps=8", "llbp:unbucketed,ps=32",
             "llbp:w=4,d=0")

#: One catalog workload and one adversarial stressor.
WORKLOADS = ("Kafka", "adv:xor")


@given(st.lists(st.booleans(), max_size=400),
       st.one_of(st.integers(1, 48), st.integers(1, 3000)),
       st.integers(1, 16))
@example([True, False, True], 5, 8)       # stream and length below width
@example([True] * 40, 24, 8)              # length a multiple of width
@example([False, True] * 100, 7, 16)      # length below width
@example([True, True, False] * 120, 3000, 13)
@settings(max_examples=80)
def test_closed_form_fold_matches_incremental_register(bits, length, width):
    """Before every push the closed form equals the reference fold."""
    stream = np.array(bits, dtype=np.uint8)
    ends = np.arange(len(bits) + 1)
    exact = columns.HistoryFolds(stream, ends, length)
    shared = columns.HistoryFolds(stream, ends, 3000)

    register = FoldedHistory(length, width)
    history = 0
    expected, windows = [], []
    for bit in bits + [None]:
        assert register.value == fold_bits(history, length, width)
        expected.append(register.value)
        windows.append(history & ((1 << width) - 1))
        if bit is None:
            break
        register.update(bit, (history >> (length - 1)) & 1)
        history = (history << 1) | bit

    assert exact.fold(length, width).tolist() == expected
    assert shared.fold(length, width).tolist() == expected
    assert exact.window(width).tolist() == windows


def _spy_tsl(tsl):
    """Record the indices and tags ``tsl``'s live TAGE and corrector
    lookups compute, one row per conditional branch."""
    recorded = []
    real_tage, real_sc = tsl.tage.lookup, tsl.sc.lookup

    def spy_tage(pc):
        res = real_tage(pc)
        recorded.append(list(res.indices) + list(res.tags))
        return res

    def spy_sc(*args):
        res = real_sc(*args)
        recorded[-1].extend(res.indices)
        return res

    tsl.tage.lookup = spy_tage
    tsl.sc.lookup = spy_sc
    return recorded


def _assert_tsl_matches_live(trace, key):
    live = make_predictor(key)
    recorded = _spy_tsl(live)
    run_simulation(trace, live, warmup_instructions=0, engine="python")
    cols = columns.tsl_columns(trace, make_predictor(key))
    assert cols.tolist() == recorded


@given(branch_lists)
@settings(max_examples=25)
@pytest.mark.parametrize("key", TSL_KEYS)
def test_tsl_columns_match_live_simulation(key, branches):
    """Columns from the trace alone and a live, training predictor hash
    identically."""
    _assert_tsl_matches_live(build_trace(branches), key)


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("key", TSL_KEYS)
def test_tsl_columns_match_live_simulation_on_workloads(key, workload):
    _assert_tsl_matches_live(generate_workload(workload, 30_000), key)


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("key", LLBP_KEYS)
def test_llbp_slot_tags_match_live_simulation(key, workload):
    """Wherever the live LLBP hashes slot tags, the matrix agrees, and
    its baseline's TAGE/SC hashes match the TSL matrix.

    Slot tags are only computed on pattern-buffer hits, so this needs a
    real workload (warm contexts), not a synthetic micro-trace.
    """
    trace = generate_workload(workload, 30_000)
    live = make_predictor(key)
    recorded = _spy_tsl(live.tsl)
    row_of_call = {}
    state = {"row": -1}

    real_predict = live.predict
    real_slot_tags = live.compute_slot_tags

    def spy_predict(pc):
        state["row"] += 1
        return real_predict(pc)

    def spy_slot_tags(pc):
        tags = real_slot_tags(pc)
        row_of_call[state["row"]] = list(tags)
        return tags

    live.predict = spy_predict
    live.compute_slot_tags = spy_slot_tags
    run_simulation(trace, live, engine="python")

    tsl_cols, slot_cols, _ = columns.llbp_columns(trace, make_predictor(key))
    assert tsl_cols.tolist() == recorded
    assert len(slot_cols) == state["row"] + 1
    assert row_of_call, "no pattern-buffer hit ever computed slot tags"
    for row, tags in row_of_call.items():
        assert slot_cols[row].tolist() == tags


def _zero_cond_trace():
    builder = TraceBuilder("uncond")
    for slot in range(12):
        builder.append(0x4000 + 16 * slot, BranchType.JUMP, True, 0x100, 3)
    return builder.build()


@pytest.mark.parametrize("make_trace", (lambda: TraceBuilder("empty").build(),
                                        _zero_cond_trace),
                         ids=("empty", "no-conditional"))
@pytest.mark.parametrize("key", ("tsl64", "llbp"))
def test_traces_without_conditional_branches(key, make_trace):
    """No conditional branch: zero rows, the usual width and dtype.  The
    CID column counts pushes instead: ``D + 1`` CIDs plus one per push,
    and every record here is a pushing JUMP."""
    reference = build_trace([(0, BranchType.COND, True)])
    trace = make_trace()
    if key == "llbp":
        predictor = make_predictor(key)
        *got, cids = columns.llbp_columns(trace, predictor)
        *want, _ = columns.llbp_columns(reference, make_predictor(key))
        assert len(cids) == (len(trace) + 1
                             + predictor.config.prefetch_distance)
    else:
        got = (columns.tsl_columns(trace, make_predictor(key)),)
        want = (columns.tsl_columns(reference, make_predictor(key)),)
    for matrix, ref in zip(got, want):
        assert matrix.shape == (0, ref.shape[1])
        assert matrix.dtype == ref.dtype


@pytest.fixture(scope="module")
def long_trace(tmp_path_factory):
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("REPRO_CACHE_DIR", str(tmp_path_factory.mktemp("cache")))
        return generate_workload("Kafka", 200_000)


@pytest.mark.parametrize("key", ("tsl64", "llbp"))
def test_column_call_peak_memory_is_bounded(long_trace, key):
    """The closed form's temporaries stay narrow: peak traced memory is
    at most 2.5x the bytes the call returns."""
    long_trace.aux.clear()
    predictor = make_predictor(key)
    tracemalloc.start()
    try:
        if key == "llbp":
            result = columns.llbp_columns(long_trace, predictor)
        else:
            result = (columns.tsl_columns(long_trace, predictor),)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
        long_trace.aux.clear()
    returned = sum(matrix.nbytes for matrix in result)
    assert peak <= 2.5 * returned, (peak, returned)


def test_columns_are_memoised_on_trace_aux():
    trace = generate_workload("Kafka", 30_000)
    predictor = make_predictor("tsl64")
    first = columns.tsl_columns(trace, predictor)
    assert columns.tsl_columns(trace, predictor) is first
    assert columns.tsl_key(predictor) in trace.aux


def test_array_runs_leave_the_store_file_untouched(tmp_path, monkeypatch):
    """The store holds traces only: simulating a store-backed trace keeps
    the columns it computes in memory, and the file keeps the packed
    trace's exact bytes, with no temp file left beside it."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    trace = generate_workload("Kafka", 30_000)
    path = trace.store_path
    assert path is not None
    packed = path.read_bytes()
    for key in ("tsl64", "llbp", "inf-tage"):
        run_simulation(trace, make_predictor(key), engine="array")
    assert columns.tsl_key(make_predictor("tsl64")) in trace.aux
    assert path.read_bytes() == packed == pack_trace(trace)
    assert list(path.parent.iterdir()) == [path]


#: (pc, branch type) records: full 64-bit PCs put window terms past bit
#: 63, and every branch type lets each context source pick its own pushes.
context_records = st.lists(
    st.tuples(st.integers(0, (1 << 64) - 1), st.sampled_from(list(BranchType))),
    max_size=60)


@given(window=st.integers(1, 48), distance=st.integers(0, 8),
       source=st.sampled_from(list(ContextSource)),
       shift=st.integers(0, 7), cid_bits=st.integers(1, 21),
       warm=st.lists(st.integers(0, (1 << 64) - 1), max_size=60),
       records=context_records)
@example(8, 4, ContextSource.UNCONDITIONAL, 2, 14, [], [])
@example(8, 4, ContextSource.UNCONDITIONAL, 2, 14, [0x1234, 0xFFFF0],
         [(0x4000, BranchType.COND), (0x4010, BranchType.COND)])
@example(48, 8, ContextSource.CALL_RET, 2, 14, [(1 << 64) - 1] * 3,
         [(0x4000, BranchType.JUMP), ((1 << 64) - 5, BranchType.CALL)])
@settings(max_examples=80)
def test_cid_column_matches_live_register(window, distance, source, shift,
                                          cid_bits, warm, records):
    """Row ``k`` of the column (``cids[k:k + D + 1]``) is ``cid_at(0..D)``
    after the trace's first ``k`` pushes, from a register that ``warm``
    already filled; a trace that never pushes has only row 0."""
    config = LLBPConfig(context_window=window, prefetch_distance=distance,
                        context_source=source, position_shift=shift,
                        cid_bits=cid_bits)
    rcr = RollingContextRegister(config)
    for pc in warm:
        rcr.push(pc)
    builder = TraceBuilder("cid")
    for pc, btype in records:
        builder.append(pc, btype, True, 0x100, 1)
    trace = builder.build()
    cids = columns.cid_columns(trace, rcr)

    rows = [[rcr.cid_at(d) for d in range(distance + 1)]]
    for pc, btype in records:
        if rcr.qualifies(int(btype)):
            rcr.push(pc)
            rows.append([rcr.cid_at(d) for d in range(distance + 1)])
            assert rows[-1][0] == rcr.ccid
            assert rows[-1][-1] == rcr.prefetch_cid
    assert len(cids) == len(rows) + distance
    assert [cids[k:k + distance + 1].tolist()
            for k in range(len(rows))] == rows


def test_cid_column_refuses_folds_wider_than_64_bits():
    """With ``3 * cid_bits > 64`` the fold would read window bits a uint64
    cannot hold: the column refuses, and such an LLBP runs only on the
    Python engine."""
    from repro.llbp.predictor import LLBPTageScL
    from repro.sim.array import unsupported_reason

    pcs = np.zeros(3, dtype=np.uint64)
    with pytest.raises(ValueError, match="22-bit CIDs"):
        columns.cid_column(pcs, LLBPConfig(cid_bits=22), [0] * 12)
    assert "CID" in unsupported_reason(LLBPTageScL(LLBPConfig(cid_bits=22)))
    assert len(columns.cid_column(pcs, LLBPConfig(cid_bits=21), [0] * 12)) == 8


def test_column_dtype_stays_compact():
    assert columns._column_dtype(12) == np.uint16
    assert columns._column_dtype(16) == np.uint16
    assert columns._column_dtype(17) == np.uint32
    assert columns._column_dtype(32) == np.uint32
    with pytest.raises(ValueError, match="33-bit"):
        columns._column_dtype(33)
