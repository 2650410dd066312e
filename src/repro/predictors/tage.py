"""TAGE: TAgged GEometric history length predictor (§II-B).

Implements the full TAGE algorithm the paper describes: an untagged
bimodal fallback plus N tagged tables indexed by hashes of PC and
geometrically longer global histories (via the shared folded-history
machinery), longest-match provider selection, use-alt-on-newly-allocated
arbitration, usefulness-guided replacement and tick-throttled allocation.

The implementation is split into ``lookup`` and ``update`` so composite
predictors (TAGE-SC-L, and LLBP which arbitrates against the provider's
history length) can interpose between prediction and training.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.common.rng import XorShift32
from repro.predictors.base import BranchPredictor
from repro.predictors.bimodal import Bimodal
from repro.predictors.history import GlobalHistory, HistorySet, HistorySpec


@dataclass(frozen=True)
class TageConfig:
    """Geometry and tuning of a TAGE instance."""

    history_lengths: Tuple[int, ...]
    index_bits: int = 10
    tag_bits: int = 12
    counter_bits: int = 3
    bimodal_index_bits: int = 13
    max_allocations: int = 2
    use_alt_bits: int = 4
    tick_threshold: int = 1024
    seed: int = 0xBADC0DE

    def __post_init__(self) -> None:
        if len(self.history_lengths) < 1:
            raise ValueError("need at least one tagged table")
        if list(self.history_lengths) != sorted(set(self.history_lengths)):
            raise ValueError("history lengths must be strictly increasing")
        if self.index_bits < 1 or self.tag_bits < 2:
            raise ValueError("invalid table geometry")

    @property
    def num_tables(self) -> int:
        return len(self.history_lengths)

    def specs(self) -> List[HistorySpec]:
        return [
            HistorySpec(length, self.index_bits, self.tag_bits)
            for length in self.history_lengths
        ]


class TageResult:
    """Everything ``lookup`` learned, consumed later by ``update``.

    A ``__slots__`` class rather than a dataclass: one is allocated per
    conditional branch, so construction and attribute-access speed matter.
    """

    __slots__ = ("pred", "provider", "provider_pred", "provider_ctr",
                 "provider_weak", "alt_pred", "alt_provider", "used_alt",
                 "bim_pred", "indices", "tags")

    def __init__(self, pred: bool = False, provider: int = -1,
                 provider_pred: bool = False, provider_ctr: int = 0,
                 provider_weak: bool = False, alt_pred: bool = False,
                 alt_provider: int = -1, used_alt: bool = False,
                 bim_pred: bool = False,
                 indices: Optional[List[int]] = None,
                 tags: Optional[List[int]] = None) -> None:
        self.pred = pred
        self.provider = provider             # table index; -1 = bimodal provided
        self.provider_pred = provider_pred
        self.provider_ctr = provider_ctr
        self.provider_weak = provider_weak
        self.alt_pred = alt_pred
        self.alt_provider = alt_provider     # table index of the alt match; -1 = bimodal
        self.used_alt = used_alt
        self.bim_pred = bim_pred
        self.indices = [] if indices is None else indices
        self.tags = [] if tags is None else tags

    @property
    def provider_length_rank(self) -> int:
        """Provider table number + 1 (0 when the bimodal provided).

        LLBP compares history lengths through this rank (§V-B: "a 6-bit
        adder is sufficient to compare the table index ... with the history
        length field").
        """
        return self.provider + 1


class Tage(BranchPredictor):
    """Finite-capacity TAGE; its :class:`GlobalHistory` is the one a
    composite (TAGE-SC-L, LLBP) shares."""

    name = "tage"

    def __init__(self, config: TageConfig) -> None:
        self.config = config
        self.history = GlobalHistory()
        self.folded = HistorySet(self.history, config.specs())
        self.bimodal = Bimodal(config.bimodal_index_bits)
        n = config.num_tables
        size = 1 << config.index_bits
        self._size = size
        self._idx_mask = size - 1
        self._tag_mask = (1 << config.tag_bits) - 1
        ctr_hi = (1 << (config.counter_bits - 1)) - 1
        self._ctr_hi = ctr_hi
        self._ctr_lo = -(ctr_hi + 1)
        # Parallel per-table arrays: prediction counters, tags, useful bits.
        # Tags start at the -1 sentinel: computed tags are always >= 0, so
        # an unallocated entry can never match and the match loop needs
        # no separate valid check (``_valid`` is still maintained for
        # allocation bookkeeping and tests).
        self.ctrs: List[List[int]] = [[0] * size for _ in range(n)]
        self.tags: List[List[int]] = [[-1] * size for _ in range(n)]
        self.useful: List[List[int]] = [[0] * size for _ in range(n)]
        self._valid: List[List[bool]] = [[False] * size for _ in range(n)]
        self._path_shift = config.index_bits
        self._rng = XorShift32(config.seed)
        self._use_alt_mid = 1 << (config.use_alt_bits - 1)
        self._use_alt = self._use_alt_mid  # start at the mid-point
        self._use_alt_max = (1 << config.use_alt_bits) - 1
        self._tick = 0

    # -- prediction ----------------------------------------------------------

    def _hashes(self, pc: int) -> Tuple[List[int], List[int]]:
        """``(indices, tags)`` of ``pc`` in every tagged table.

        Table ``t`` mixes the PC, its index fold and the path history
        into the index, and the PC with its two tag folds into the tag.
        """
        pcx = pc >> 2
        path = self.history.path
        path_mix = pcx ^ (path ^ (path >> self._path_shift))
        idx_mask = self._idx_mask
        tag_mask = self._tag_mask
        indices: List[int] = []
        tags: List[int] = []
        folds = iter(self.folded.values)
        for shift, (f0, f1, f2) in enumerate(zip(folds, folds, folds), 1):
            indices.append(((pcx >> shift) ^ f0 ^ path_mix) & idx_mask)
            tags.append((pcx ^ f1 ^ (f2 << 1)) & tag_mask)
        return indices, tags

    def lookup(self, pc: int) -> TageResult:
        indices, tags = self._hashes(pc)
        provider = -1
        alt = -1
        for t, (table_tags, idx, tag) in enumerate(
                zip(self.tags, indices, tags)):
            if table_tags[idx] == tag:
                alt = provider
                provider = t
        ctrs = self.ctrs
        return self._result(
            pc, indices, tags, provider,
            ctrs[provider][indices[provider]] if provider >= 0 else 0,
            alt, ctrs[alt][indices[alt]] if alt >= 0 else 0)

    def _result(self, pc: int, indices: List[int], tags: List[int],
                provider: int, provider_ctr: int, alt: int,
                alt_ctr: int) -> TageResult:
        """The :class:`TageResult` for the longest (``provider``) and
        second-longest (``alt``) matching tables; -1 = no match."""
        # Built via __new__ with every slot stored exactly once: one
        # TageResult per conditional branch makes default-then-overwrite
        # construction measurable.
        res = TageResult.__new__(TageResult)
        res.indices = indices
        res.tags = tags
        res.bim_pred = bim_pred = self.bimodal.lookup(pc)
        res.provider = provider
        if provider >= 0:
            res.provider_ctr = provider_ctr
            res.provider_pred = provider_pred = provider_ctr >= 0
            res.provider_weak = weak = provider_ctr == 0 or provider_ctr == -1
            res.alt_provider = alt
            alt_pred = alt_ctr >= 0 if alt >= 0 else bim_pred
            res.alt_pred = alt_pred
            # Newly-allocated entries are unreliable; a global counter
            # decides whether to trust the alternative instead.
            if weak and self._use_alt >= self._use_alt_mid:
                res.used_alt = True
                res.pred = alt_pred
            else:
                res.used_alt = False
                res.pred = provider_pred
        else:
            res.provider_ctr = 0
            res.provider_pred = False
            res.provider_weak = False
            res.alt_provider = -1
            res.used_alt = False
            res.alt_pred = bim_pred
            res.pred = bim_pred
        return res

    def predict(self, pc: int) -> TageResult:
        return self.lookup(pc)

    # -- training ------------------------------------------------------------

    def train(self, pc: int, taken: bool, meta: TageResult) -> None:
        self.update(pc, taken, meta)

    def update(self, pc: int, taken: bool, res: TageResult,
               suppress_provider: bool = False) -> None:
        """Train TAGE on the resolved branch.

        ``suppress_provider`` cancels the provider-counter update (used
        when LLBP overrode and is the training provider, §V-D).
        """
        provider = res.provider
        mispredicted = res.pred != taken

        if provider >= 0:
            idx = res.indices[provider]
            if res.provider_pred != res.alt_pred:
                # Usefulness: provider disagreed with alt; reward if right.
                if res.provider_pred == taken:
                    self.useful[provider][idx] = 1
                else:
                    u = self.useful[provider][idx]
                    if u > 0:
                        self.useful[provider][idx] = u - 1
                # Track whether trusting alt on weak entries pays off.
                if res.provider_weak:
                    if res.alt_pred == taken and self._use_alt < self._use_alt_max:
                        self._use_alt += 1
                    elif res.provider_pred == taken and self._use_alt > 0:
                        self._use_alt -= 1
            if not suppress_provider:
                ctr = self.ctrs[provider][idx]
                if taken:
                    if ctr < self._ctr_hi:
                        self.ctrs[provider][idx] = ctr + 1
                elif ctr > self._ctr_lo:
                    self.ctrs[provider][idx] = ctr - 1
                # Weak providers also train the alt path so the fallback
                # stays warm (standard TAGE practice).
                if res.provider_weak and res.alt_provider < 0:
                    self.bimodal.update(pc, taken)
        else:
            if not suppress_provider:
                self.bimodal.update(pc, taken)

        if mispredicted:
            self.allocate(pc, taken, res)

    def allocate(self, pc: int, taken: bool, res: TageResult) -> None:
        """Allocate new entries with longer history after a misprediction."""
        provider = res.provider
        n = self.config.num_tables
        if provider >= n - 1:
            return
        start = provider + 1
        # Randomised start (Seznec): avoids always burning the next table.
        if start < n - 1 and self._rng.chance(1, 2):
            start += 1

        allocated = 0
        failures = 0
        t = start
        while t < n and allocated < self.config.max_allocations:
            idx = res.indices[t]
            if self.useful[t][idx] == 0:
                self.tags[t][idx] = res.tags[t]
                self.ctrs[t][idx] = 0 if taken else -1
                self._valid[t][idx] = True
                allocated += 1
                t += 2  # spread allocations across history lengths
            else:
                failures += 1
                t += 1

        # Tick throttle: when allocation keeps failing, usefulness bits are
        # stale — clear them all so the predictor can adapt (u is 1 bit, so
        # "halving" == clearing).
        self._tick += failures - allocated
        if self._tick < 0:
            self._tick = 0
        elif self._tick >= self.config.tick_threshold:
            self._tick = 0
            for t in range(n):
                useful_t = self.useful[t]
                for i in range(self._size):
                    useful_t[i] = 0

    # -- bookkeeping -----------------------------------------------------------

    def update_history(self, pc: int, branch_type: int, taken: bool,
                       target: int) -> None:
        self.history.push_branch(pc, branch_type == 0, taken)

    def storage_bits(self) -> int:
        entry_bits = self.config.counter_bits + self.config.tag_bits + 1
        return (
            self.bimodal.storage_bits()
            + self.config.num_tables * self._size * entry_bits
        )

    def state_arrays(self) -> dict:
        """Snapshot of the mutable table state as numpy arrays.

        Covers everything training touches — tagged tables, bimodal,
        use-alt and tick counters, allocation RNG — so two engines that
        processed the same trace must produce equal dicts.  History folds
        are excluded: they are a pure function of the branch stream.
        """
        import numpy as np

        return {
            "ctrs": np.array(self.ctrs, dtype=np.int16),
            "tags": np.array(self.tags, dtype=np.int64),
            "useful": np.array(self.useful, dtype=np.int16),
            "bimodal": np.array(self.bimodal.table, dtype=np.int16),
            "use_alt": np.array(self._use_alt, dtype=np.int64),
            "tick": np.array(self._tick, dtype=np.int64),
            "rng": np.array(self._rng.state, dtype=np.uint64),
        }
