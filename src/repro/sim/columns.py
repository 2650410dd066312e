"""Precomputed per-branch hash/fold columns for the array engine.

Every index, tag and fold the predictors hash per branch is a pure
function of (trace stream, predictor geometry) — it depends on the
history *bits*, never on predictions or table contents.  A folded
history register is a fixed XOR of history bits, so each column has a
closed form over the whole trace: :class:`HistoryFolds` computes every
TAGE table index and tag, every SC component index and every LLBP slot
tag for all conditional branches at once with numpy, without building a
predictor or stepping through the trace.  The fused simulation loops
then consume these as flat integer rows and never touch the
folded-history machinery at all.

LLBP's context IDs are closed form too: a CID hashes the last ``W``
context-forming PCs, so :func:`cid_column` computes the IDs the
rolling context register holds after every push of the trace at once.

Columns are memoised on ``Trace.aux`` (keyed by a digest of the
geometry), so every predictor of one geometry in a batch over the trace
shares them.  They never reach disk: the closed form rebuilds a matrix
in a fraction of a second at the default budget, and the packed store
(:mod:`repro.traces.store`) holds branch records only.

The scalar references these columns must match are the predictors' own
hashes: the indices and tags ``Tage.lookup`` and
``StatisticalCorrector.lookup`` compute, and LLBP's
``compute_slot_tags``, and for the CID column
:class:`~repro.llbp.rcr.RollingContextRegister`.  The property tests in
``tests/sim/test_columns.py`` pin that equivalence against live,
training predictors and a live register.
"""

from __future__ import annotations

import hashlib
import time
from typing import Optional, Tuple

import numpy as np

from repro import telemetry
from repro.predictors.history import PATH_BITS
from repro.traces.trace import Trace


def _digest(*parts) -> str:
    return hashlib.sha256(repr(parts).encode()).hexdigest()[:16]


def tsl_key(tsl) -> str:
    """Aux key of the TAGE+SC column matrix for ``tsl``'s geometry."""
    tage_cfg = tsl.tage.config
    return "cols/tsl:" + _digest(
        tuple(tage_cfg.history_lengths), tage_cfg.index_bits,
        tage_cfg.tag_bits, PATH_BITS,
        tuple(tsl.sc.history_lengths), tsl.sc.index_bits)


def llbp_key(predictor) -> str:
    """Aux key of the LLBP slot-tag matrix for ``predictor``'s geometry."""
    return "cols/llbp:" + _digest(
        tuple(predictor.config.slot_lengths),
        predictor.config.pattern_tag_bits)


def cid_key(rcr) -> str:
    """Aux key of the CID column for ``rcr``'s hashing and contents."""
    cfg = rcr.config
    return "cols/cid:" + _digest(
        cfg.context_window, cfg.prefetch_distance, cfg.position_shift,
        cfg.cid_bits, cfg.context_source.value, tuple(rcr.snapshot()))


def gshare_key(predictor) -> str:
    return f"cols/gshare:{predictor.index_bits}:{predictor.history_bits}"


def bimode_key(predictor) -> str:
    cfg = predictor.config
    return (f"cols/bimode:{cfg.choice_bits}:{cfg.direction_bits}"
            f":{cfg.history_bits}")


def percep_key(predictor) -> str:
    cfg = predictor.config
    # weight_bits / threshold never enter the index computation.
    return f"cols/percep:{cfg.tables}:{cfg.row_bits}:{cfg.history_bits}"


def _column_dtype(max_bits: int):
    if max_bits > 32:
        raise ValueError(f"{max_bits}-bit hashes do not fit uint32 columns")
    return np.uint16 if max_bits <= 16 else np.uint32


def gshare_index_column(trace: Trace, index_bits: int,
                        history_bits: int) -> np.ndarray:
    """The gshare table index of every conditional branch, vectorised.

    Bit ``k`` of the history at conditional branch ``i`` is the outcome
    of conditional branch ``i - 1 - k`` (gshare shifts outcomes in for
    conditional branches only), so each history bit-lane is a shifted
    copy of the taken column.  Equivalent to replaying
    ``GShare._index`` / ``update_history`` per branch.
    """
    pcs, hist = cond_history_lanes(trace, history_bits)
    idx = ((pcs >> np.uint64(2)) ^ hist) & np.uint64((1 << index_bits) - 1)
    return idx.astype(np.uint32)


def cond_history_lanes(trace: Trace,
                       history_bits: int) -> Tuple[np.ndarray, np.ndarray]:
    """``(pcs, hist)`` per conditional branch for outcome-shift histories.

    ``hist[i]`` is the global history register (conditional outcomes
    only, newest in bit 0) as seen *before* conditional branch ``i`` —
    the same bit-lane construction :func:`gshare_index_column` uses.
    """
    cond = trace.types == 0
    pcs = trace.pcs[cond].astype(np.uint64)
    takens = trace.takens[cond].astype(np.uint64)
    n = len(pcs)
    hist = np.zeros(n, dtype=np.uint64)
    for k in range(history_bits):
        if k + 1 >= n:
            break
        hist[k + 1:] |= takens[:n - k - 1] << np.uint64(k)
    return pcs, hist


def bimode_index_columns(trace: Trace, config) -> np.ndarray:
    """Per-conditional-branch ``[choice_index, direction_index]`` rows.

    Equivalent to replaying ``BiMode._indices`` / ``update_history``
    per branch.
    """
    pcs, hist = cond_history_lanes(trace, config.history_bits)
    pcx = pcs >> np.uint64(2)
    out = np.empty((len(pcs), 2), dtype=np.uint32)
    out[:, 0] = (pcx & np.uint64((1 << config.choice_bits) - 1)).astype(np.uint32)
    out[:, 1] = ((pcx ^ hist)
                 & np.uint64((1 << config.direction_bits) - 1)).astype(np.uint32)
    return out


def percep_index_columns(trace: Trace, config) -> np.ndarray:
    """Per-conditional-branch perceptron table indices, one column per table.

    Column 0 is the PC-indexed bias table; column ``t`` XOR-folds history
    segment ``t - 1`` into the PC, exactly as
    ``HashedPerceptron._indices`` does scalar-wise.
    """
    pcs, hist = cond_history_lanes(trace, config.history_bits)
    rmask = np.uint64((1 << config.row_bits) - 1)
    seg_bits = config.segment_bits
    seg_mask = np.uint64((1 << seg_bits) - 1)
    base = (pcs >> np.uint64(2)) & rmask
    out = np.empty((len(pcs), config.tables), dtype=np.uint32)
    out[:, 0] = base.astype(np.uint32)
    for t in range(1, config.tables):
        seg = (hist >> np.uint64((t - 1) * seg_bits)) & seg_mask
        folded = np.zeros_like(seg)
        while seg.any():
            folded ^= seg & rmask
            seg = seg >> np.uint64(config.row_bits)
        out[:, t] = ((base ^ folded) & rmask).astype(np.uint32)
    return out


def context_pushes(trace: Trace, rcr) -> np.ndarray:
    """Mask of the records that push into ``rcr`` (``rcr.qualifies``)."""
    return np.array([rcr.qualifies(t) for t in range(256)])[trace.types]


def cid_column(pcs: np.ndarray, config, initial) -> np.ndarray:
    """Every CID an RCR holds while ``pcs`` are pushed, in closed form.

    ``initial`` is the register's contents before the first push
    (oldest first, ``W + D`` PCs).  With ``P = len(pcs)``, ``out[k +
    d]`` is ``cid_at(d)`` once the first ``k`` of ``pcs`` are pushed,
    for ``0 <= k <= P`` and ``0 <= d <= D``: ``cid_at(d)`` after ``k``
    pushes hashes the ``W`` PCs of ``initial + pcs`` ending at position
    ``k + W - 1 + d``, so one vector of ``P + D + 1`` window hashes
    holds them all, and ``out[k]`` is the CCID after ``k`` pushes.

    The fold reads only the low ``3 * cid_bits`` bits of the window's
    XOR, so a PC shifted that far contributes nothing and is skipped;
    every shift used is then below 64, where uint64 arithmetic keeps
    those low bits exact.  Wider CIDs are refused.
    """
    window, bits = config.context_window, config.cid_bits
    if 3 * bits > 64:
        raise ValueError(f"{bits}-bit CIDs fold more than 64 window bits")
    stream = np.concatenate([np.asarray(initial, dtype=np.uint64),
                             pcs.astype(np.uint64)]) >> np.uint64(2)
    count = len(stream) - window + 1
    raw = np.zeros(count, dtype=np.uint64)
    for position in range(window):
        shift = config.position_shift * position
        if shift >= 3 * bits:
            break
        start = window - 1 - position
        raw ^= stream[start:start + count] << np.uint64(shift)
    folded = raw >> np.uint64(bits)
    folded ^= raw
    folded ^= raw >> np.uint64(2 * bits)
    folded &= np.uint64((1 << bits) - 1)
    return folded.astype(_column_dtype(bits))


class HistoryFolds:
    """Closed-form folded-history registers over one history bit stream.

    ``bits[k]`` is the bit branch ``k`` pushes into the history (0 before
    the stream starts); row ``m`` reads the history as it stands just
    before branch ``ends[m]`` pushes its own bit.  :meth:`fold` returns,
    for every row at once, what a ``FoldedHistory(length, width)``
    register holds there — no per-branch stepping.

    The fold of ``L = q*W + r`` bits at width ``W`` ending at position
    ``k`` is ``XOR_{j<L} bits[k-j] << (j mod W)``.  With ``G[k]`` the
    ``W``-bit window ending at ``k`` (newest in bit 0) and ``H[k]`` its
    stride-``W`` prefix XOR (``H[k] = G[k] ^ H[k-W]``), the ``q`` full
    windows telescope and the ``r`` oldest bits are a masked window::

        fold = H[k] ^ H[k - q*W] ^ (G[k - q*W] & (2**r - 1))

    One ``G``/``H`` pair is built per distinct width and shared by every
    fold of that width.  The stream is front-padded with ``max_length +
    1`` zeros so every ``k - q*W`` is a valid position.  Planes are
    uint16 (uint32 past 16 bits) and positions int32, which keeps peak
    memory near the size of the columns built from them.
    """

    def __init__(self, bits: np.ndarray, ends: np.ndarray,
                 max_length: int) -> None:
        pad = max_length + 1
        self._stream = np.concatenate(
            [np.zeros(pad, dtype=np.uint8), bits.astype(np.uint8)])
        self._at = (ends + (pad - 1)).astype(np.int32)
        self._planes: dict = {}

    def _plane(self, width: int) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(G, H, H[at])`` for ``width``, built once per width."""
        plane = self._planes.get(width)
        if plane is None:
            dtype = _column_dtype(width)
            stream = self._stream.astype(dtype)
            n = len(stream)
            rows = -(-n // width)
            window = np.zeros(rows * width, dtype=dtype)
            for j in range(min(width, n)):
                window[j:n] |= stream[:n - j] << dtype(j)
            prefix = np.bitwise_xor.accumulate(
                window.reshape(rows, width), axis=0).reshape(-1)
            plane = self._planes[width] = (window, prefix, prefix[self._at])
        return plane

    def window(self, width: int) -> np.ndarray:
        """The ``width`` newest bits per row, newest in bit 0."""
        return self._plane(width)[0][self._at]

    def fold(self, length: int, width: int) -> np.ndarray:
        """The ``length``-bit history folded to ``width`` bits, per row."""
        window, prefix, newest = self._plane(width)
        q, r = divmod(length, width)
        back = self._at - q * width
        out = newest ^ prefix[back]
        if r:
            out ^= window[back] & window.dtype.type((1 << r) - 1)
        return out


def _pc_hash(pcx: np.ndarray, shift: int, mix, mask: int,
             dtype) -> np.ndarray:
    """``(pcx ^ (pcx >> shift) ^ mix) & mask`` narrowed to ``dtype``."""
    out = pcx >> np.uint64(shift)
    out ^= pcx
    out ^= mix
    out &= np.uint64(mask)
    return out.astype(dtype)


def _hash_columns(trace: Trace, tsl_config=None,
                  llbp_config=None) -> Tuple[Optional[np.ndarray],
                                             Optional[np.ndarray]]:
    """``(tsl_matrix, slot_tag_matrix)`` in closed form; ``None`` for a
    part whose config is ``None``.

    Row ``m`` holds, for the ``m``-th conditional branch, the indices
    and tags ``Tage.lookup`` and ``StatisticalCorrector.lookup`` compute
    there, and LLBP's ``compute_slot_tags``, for a predictor of this
    geometry.  Every branch
    pushes one history bit: its outcome if conditional, ``(pc >> 2) & 1``
    otherwise.  Both parts fold that one stream, so they share one
    :class:`HistoryFolds`.
    """
    is_cond = trace.types == 0
    ends = np.flatnonzero(is_cond).astype(np.int32)
    pc_bits = ((trace.pcs >> np.uint64(2)) & np.uint64(1)).astype(np.uint8)
    lengths = []
    path = None
    if tsl_config is not None:
        lengths.extend(tsl_config.tage.history_lengths)
        # The path register takes ``(pc >> 2) & 1`` from every branch.
        path = HistoryFolds(pc_bits, ends, PATH_BITS).window(PATH_BITS)
    if llbp_config is not None:
        lengths.extend(llbp_config.slot_lengths)
    folds = HistoryFolds(np.where(is_cond, trace.takens, pc_bits), ends,
                         max(lengths))
    pcx = trace.pcs[is_cond] >> np.uint64(2)
    del is_cond, ends, pc_bits
    cols = slot_cols = None
    if tsl_config is not None:
        cols = _tsl_matrix(trace, tsl_config, pcx, path, folds)
    if llbp_config is not None:
        slot_cols = _slot_tag_matrix(llbp_config, pcx, folds)
    return cols, slot_cols


def _tsl_matrix(trace: Trace, tsl_config, pcx: np.ndarray,
                path: np.ndarray, folds: HistoryFolds) -> np.ndarray:
    """TAGE indices and tags plus SC indices, one row per conditional."""
    tage_cfg = tsl_config.tage
    lengths = tage_cfg.history_lengths
    num_tables = len(lengths)
    index_bits, tag_bits = tage_cfg.index_bits, tage_cfg.tag_bits
    sc_lengths = tsl_config.sc_history_lengths
    sc_bits = tsl_config.sc_index_bits
    dtype = _column_dtype(max(index_bits, tag_bits, sc_bits))
    cols = np.empty((len(pcx), 2 * num_tables + len(sc_lengths)),
                    dtype=dtype)

    # The corrector's own 64-bit history shifts in conditional outcomes.
    _, sc_hist = cond_history_lanes(trace, min(64, max(sc_lengths)))
    for c, length in enumerate(sc_lengths):
        h = sc_hist & np.uint64((1 << min(64, length)) - 1)
        h ^= h >> np.uint64(sc_bits)
        cols[:, 2 * num_tables + c] = _pc_hash(
            pcx, c + 2, h, (1 << sc_bits) - 1, dtype)
    del sc_hist, h

    path_mix = path.astype(np.uint64)
    path_mix ^= path_mix >> np.uint64(index_bits)
    tag_pc = (pcx & np.uint64((1 << tag_bits) - 1)).astype(dtype)
    for t, length in enumerate(lengths):
        index = _pc_hash(pcx, t + 1, path_mix, (1 << index_bits) - 1, dtype)
        index ^= folds.fold(length, index_bits)
        cols[:, t] = index
        tag = folds.fold(length, max(1, tag_bits - 1)).astype(dtype)
        tag <<= 1
        tag ^= folds.fold(length, tag_bits)
        tag ^= tag_pc
        cols[:, num_tables + t] = tag
    return cols


def _slot_tag_matrix(llbp_config, pcx: np.ndarray,
                     folds: HistoryFolds) -> np.ndarray:
    """LLBP slot tags, one row per conditional branch."""
    ptb = llbp_config.pattern_tag_bits
    dtype = _column_dtype(ptb)
    mask = (1 << ptb) - 1
    slot_cols = np.empty((len(pcx), len(llbp_config.slot_lengths)),
                         dtype=dtype)
    for h, length in enumerate(llbp_config.slot_lengths):
        tag = folds.fold(length, max(1, ptb - 1)).astype(dtype)
        tag <<= 1
        tag ^= folds.fold(length, ptb)
        # The slot number salts the PC so starred slots differ.
        tag ^= _pc_hash(pcx, h + 2, np.uint64(h * 0x9E5), mask, dtype)
        tag &= dtype(mask)
        slot_cols[:, h] = tag
    return slot_cols


def _memo(trace: Trace, key: str, compute) -> np.ndarray:
    """``trace.aux[key]``, set to ``compute()`` on first use."""
    cached = trace.aux.get(key)
    if cached is None:
        start = time.perf_counter()
        cached = trace.aux[key] = compute()
        telemetry.emit("sim.columns", workload=trace.name, key=key,
                       rows=len(cached),
                       seconds=time.perf_counter() - start)
    return cached


def gshare_columns(trace: Trace, predictor) -> np.ndarray:
    """Per-conditional-branch gshare indices."""
    return _memo(trace, gshare_key(predictor), lambda: gshare_index_column(
        trace, predictor.index_bits, predictor.history_bits))


def bimode_columns(trace: Trace, predictor) -> np.ndarray:
    """Per-conditional-branch bimode indices."""
    return _memo(trace, bimode_key(predictor),
                 lambda: bimode_index_columns(trace, predictor.config))


def percep_columns(trace: Trace, predictor) -> np.ndarray:
    """Per-conditional-branch perceptron indices."""
    return _memo(trace, percep_key(predictor),
                 lambda: percep_index_columns(trace, predictor.config))


def tsl_columns(trace: Trace, predictor) -> np.ndarray:
    """TAGE index/tag + SC index columns for a TAGE-SC-L predictor.

    Row layout per conditional branch (``T`` TAGE tables, ``C`` SC
    components): ``[idx_0..idx_T-1, tag_0..tag_T-1, sc_0..sc_C-1]``.
    """
    return _memo(trace, tsl_key(predictor),
                 lambda: _hash_columns(trace, predictor.config)[0])


def cid_columns(trace: Trace, rcr) -> np.ndarray:
    """:func:`cid_column` of ``rcr`` over ``trace``'s context-forming
    branches, starting from the register's current contents."""
    return _memo(trace, cid_key(rcr), lambda: cid_column(
        trace.pcs[context_pushes(trace, rcr)], rcr.config, rcr.snapshot()))


def llbp_columns(trace: Trace,
                 predictor) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(tsl_columns, slot_tag_columns, cid_columns)`` for an LLBP
    predictor.

    When neither matrix is memoised yet, both come from one shared pass
    over the history stream.
    """
    tsl = predictor.tsl
    t_key = tsl_key(tsl)

    def slot_tags():
        shared = None if t_key in trace.aux else tsl.config
        tsl_cols, slot_cols = _hash_columns(trace, shared, predictor.config)
        if tsl_cols is not None:
            trace.aux[t_key] = tsl_cols
        return slot_cols

    slot_cols = _memo(trace, llbp_key(predictor), slot_tags)
    return (_memo(trace, t_key, lambda: _hash_columns(trace, tsl.config)[0]),
            slot_cols, cid_columns(trace, predictor.rcr))
