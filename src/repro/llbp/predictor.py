"""The composite predictor: LLBP alongside an unmodified TAGE-SC-L (§V).

Prediction path (Fig 7): the pattern buffer is indexed by the current
context ID; the matching pattern with the longest history is compared —
by history length — against TAGE's provider, and the longer of the two
supplies the base prediction, which then flows through the baseline's
statistical corrector and loop predictor as usual.

Training (§V-D): only the providing component updates its counter.  When
the provider mispredicts, LLBP allocates a pattern with the next-longer
history in the current context's pattern set (creating the context in the
directory first if needed — step 1), and TAGE runs its normal allocation
for its own mispredictions.

Timing (§V-C): prefetches are issued on context-forming branches using
the D-advanced prefetch CID and arrive after the CD+LLBP latency; final
mispredictions squash in-flight prefetches and restart prefetching, which
is where late pattern sets can cost LLBP coverage.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro import telemetry
from repro.common.rng import XorShift32
from repro.llbp.config import LLBPConfig
from repro.llbp.pattern import PatternSet
from repro.llbp.pattern_buffer import PatternBuffer
from repro.llbp.prefetch import PrefetchEngine
from repro.llbp.rcr import RollingContextRegister
from repro.llbp.storage import ContextDirectory
from repro.predictors.base import BranchPredictor
from repro.predictors.history import GlobalHistory, HistorySet, HistorySpec
from repro.predictors.presets import TAGE_HISTORY_LENGTHS, tsl_64k
from repro.predictors.tage_sc_l import TslResult


class LLBPMeta:
    """Per-prediction metadata carried from ``predict`` to ``train``."""

    __slots__ = ("tsl", "ccid", "pattern_set", "slot", "slot_tags",
                 "llbp_pred", "llbp_rank", "overrode")

    def __init__(self, tsl: TslResult, ccid: int,
                 pattern_set: Optional[PatternSet], slot: int,
                 slot_tags: Optional[List[int]], llbp_pred: bool,
                 llbp_rank: int, overrode: bool) -> None:
        self.tsl = tsl
        self.ccid = ccid
        self.pattern_set = pattern_set
        self.slot = slot                # matching pattern slot, -1 = no match
        self.slot_tags = slot_tags      # computed tags per hash slot
        self.llbp_pred = llbp_pred
        self.llbp_rank = llbp_rank      # history-length rank of the match
        self.overrode = overrode

    @property
    def pred(self) -> bool:
        return self.tsl.pred


class LLBPTageScL(BranchPredictor):
    """LLBP backing a TAGE-SC-L baseline (the paper's evaluated design)."""

    name = "llbp"

    def __init__(self, config: LLBPConfig = LLBPConfig()) -> None:
        self.config = config
        self.tsl = tsl_64k()
        if not config.simulate_timing:
            self.name = "llbp-0lat"
        self.history: GlobalHistory = self.tsl.history
        # Folded registers for the 16 hash slots, fed by the same history
        # stream as the baseline TAGE (§V-B).  Starred (duplicate-length)
        # slots share identical fold values, so only unique lengths carry
        # registers; per-slot rows map back.
        unique: dict = {}
        for length in config.slot_lengths:
            if length not in unique:
                unique[length] = len(unique)
        ptb = config.pattern_tag_bits
        self.folded = HistorySet(
            self.history, [HistorySpec(length, ptb, ptb) for length in unique])
        # Per-slot (pc shift, salt, fold index) rows for compute_slot_tags;
        # the fold index points at the slot length's index fold, followed
        # by its two tag folds (widths ptb and ptb - 1).
        self._slot_folds = [
            (h + 2, h * 0x9E5, 3 * unique[length])
            for h, length in enumerate(config.slot_lengths)
        ]
        # History-length rank of each hash slot, in TAGE-table units, so a
        # small comparison arbitrates between the two predictors (§V-B).
        self._slot_rank = [
            TAGE_HISTORY_LENGTHS.index(length) + 1 for length in config.slot_lengths
        ]
        # Allocation candidates per provider rank (the hash slots whose
        # history is longer), precomputed — ranks are small and fixed.
        max_rank = max(self._slot_rank)
        self._alloc_candidates = [
            [h for h, rank in enumerate(self._slot_rank) if rank > pr]
            for pr in range(max_rank + 2)
        ]
        self._tag_mask = (1 << config.pattern_tag_bits) - 1

        self.rcr = RollingContextRegister(config)
        self.directory = ContextDirectory(config)
        self.buffer = PatternBuffer(config)
        self.prefetcher = PrefetchEngine(config, self.directory, self.buffer)
        self._rng = XorShift32(0x11BB)
        self._now = 0
        self._cd_accesses = 0
        # Fig 15 breakdown counters.
        self.counts = {
            "predictions": 0,
            "llbp_provided": 0,
            "no_override": 0,
            "override_good": 0,
            "override_bad": 0,
            "override_both_correct": 0,
            "override_both_wrong": 0,
            "pb_miss_with_context": 0,
            "allocations": 0,
            "context_creations": 0,
        }

    # -- hashing ---------------------------------------------------------------

    def compute_slot_tags(self, pc: int) -> List[int]:
        """Tags for all 16 hash slots (H1..H16 in Fig 7).

        Starred slots (duplicate lengths) fold the same history at the
        same width but mix the PC differently — the slot index acts as the
        hash salt (§VI: "a modified hash function").
        """
        pcx = pc >> 2
        values = self.folded.values
        mask = self._tag_mask
        return [
            (pcx ^ (pcx >> shift) ^ values[j + 1] ^ (values[j + 2] << 1)
             ^ salt) & mask
            for shift, salt, j in self._slot_folds
        ]

    # -- prediction ---------------------------------------------------------------

    def predict(self, pc: int) -> LLBPMeta:
        self.counts["predictions"] += 1

        ccid = self.rcr.ccid
        pattern_set = self.buffer.get(ccid)
        if pattern_set is None and ccid in self.directory:
            self.counts["pb_miss_with_context"] += 1

        slot = -1
        slot_tags: Optional[List[int]] = None
        llbp_pred = False
        llbp_rank = 0
        llbp_weak = False
        if pattern_set is not None:
            slot_tags = self.compute_slot_tags(pc)
            slot = pattern_set.find_longest(slot_tags)
            if slot >= 0:
                ctr = pattern_set.counter(slot)
                llbp_pred = ctr >= 0
                llbp_weak = ctr in (0, -1)
                llbp_rank = self._slot_rank[pattern_set.hash_slot(slot)]

        tage_res = self.tsl.tage.lookup(pc)
        overrode = slot >= 0 and llbp_rank >= tage_res.provider_length_rank
        if (overrode and llbp_weak and self.config.weak_override_guard
                and tage_res.provider >= 0 and not tage_res.provider_weak):
            # A freshly-allocated pattern defers to an established TAGE
            # provider (the LLBP analogue of use-alt-on-newly-allocated).
            overrode = False
        if slot >= 0:
            self.counts["llbp_provided"] += 1
            if not overrode:
                self.counts["no_override"] += 1

        override = None
        if overrode:
            override = (llbp_pred, pattern_set.counter(slot))
        tsl_res = self.tsl.lookup(pc, base_override=override, tage_res=tage_res)

        return LLBPMeta(
            tsl=tsl_res,
            ccid=ccid,
            pattern_set=pattern_set,
            slot=slot,
            slot_tags=slot_tags,
            llbp_pred=llbp_pred,
            llbp_rank=llbp_rank,
            overrode=overrode,
        )

    # -- training -------------------------------------------------------------------

    def train(self, pc: int, taken: bool, meta: LLBPMeta) -> None:
        mispredicted = meta.pred != taken

        exclusive = self.config.exclusive_provider_training
        if meta.overrode:
            tage_pred = meta.tsl.tage.pred
            if meta.llbp_pred == taken:
                key = "override_both_correct" if tage_pred == taken else "override_good"
            else:
                key = "override_both_wrong" if tage_pred != taken else "override_bad"
            self.counts[key] += 1
            # LLBP provided: its pattern always trains; TAGE's provider
            # cancels its update only under the paper's exclusive policy.
            meta.pattern_set.update_counter(meta.slot, taken)
            self.tsl.train(pc, taken, meta.tsl, suppress_tage_provider=exclusive)
        else:
            if meta.slot >= 0 and not exclusive:
                meta.pattern_set.update_counter(meta.slot, taken)
            self.tsl.train(pc, taken, meta.tsl)

        # Provider misprediction drives LLBP pattern allocation (§V-D).
        if meta.tsl.base_pred != taken:
            provider_rank = meta.llbp_rank if meta.overrode \
                else meta.tsl.tage.provider_length_rank
            self._allocate(pc, taken, meta, provider_rank)

        # A final misprediction resets the pipeline: squash in-flight
        # prefetches and restart from the checkpointed RCR state, re-running
        # the whole D-deep prefetch pipeline (§V-C, §V-E2).
        if mispredicted and self.config.simulate_timing:
            self.prefetcher.squash()
            for distance in range(self.config.prefetch_distance + 1):
                self.prefetcher.issue(self.rcr.cid_at(distance), self._now)

    def _allocate(self, pc: int, taken: bool, meta: LLBPMeta,
                  provider_rank: int) -> None:
        """Allocate a longer-history pattern in the current context."""
        slot_tags = meta.slot_tags
        if slot_tags is None and meta.pattern_set is not None:
            slot_tags = self.compute_slot_tags(pc)
        self._allocate_parts(pc, taken, meta.ccid, meta.pattern_set,
                             slot_tags, provider_rank, self._now)

    def _allocate_parts(self, pc: int, taken: bool, ccid: int,
                        pattern_set: Optional[PatternSet],
                        slot_tags: Optional[List[int]],
                        provider_rank: int, now: int) -> None:
        """:meth:`_allocate` with every input explicit (no meta object).

        The array engine calls this directly: it carries precomputed
        slot tags and its own local clock, and must not fall back to
        :meth:`compute_slot_tags` (its folded registers never advance).
        """
        # Find the shortest LLBP history longer than the provider's, with
        # the same one-step randomisation TAGE's allocator uses.
        table = self._alloc_candidates
        candidates = (table[provider_rank]
                      if provider_rank < len(table) else [])
        if not candidates:
            return
        pick = candidates[0]
        if len(candidates) > 1 and self._rng.chance(1, 2):
            pick = candidates[1]

        if pattern_set is None:
            if ccid in self.directory:
                # Context exists but was not resident at predict time:
                # demand-fetch it for future use; allocating into a
                # non-resident set is not possible in hardware.
                self.prefetcher.issue(ccid, now)
                return
            # Step 1: start tracking this context.
            pattern_set, _ = self.directory.insert(ccid)
            self.buffer.fill(ccid, pattern_set, self.directory)
            self.counts["context_creations"] += 1

        if slot_tags is None:
            slot_tags = self.compute_slot_tags(pc)
        pattern_set.allocate(pick, slot_tags[pick], taken)
        self.counts["allocations"] += 1

    # -- history / timing ---------------------------------------------------------------

    def update_history(self, pc: int, branch_type: int, taken: bool,
                       target: int) -> None:
        self.tsl.update_history(pc, branch_type, taken, target)
        if self.rcr.qualifies(branch_type):
            changed = self.rcr.push(pc)
            if changed:
                self._cd_accesses += 1
            self.prefetcher.issue(self.rcr.prefetch_cid, self._now)

    def advance(self, instructions: int) -> None:
        self._now += instructions
        self.prefetcher.drain(self._now)

    # -- reporting ------------------------------------------------------------------------

    def storage_bits(self) -> int:
        return (self.tsl.storage_bits() + self.config.storage_bits
                + self.config.cd_bits
                + self.config.pb_entries * self.config.pattern_set_bits)

    def state_arrays(self) -> dict:
        """Snapshot of all mutable state as numpy arrays.

        Baseline TAGE-SC-L keys are prefixed ``tsl/``; the context
        directory (``cd/``) flattens every resident pattern set in
        set-major, insertion order (the order is replacement-visible, so
        it is part of the state); ``pb/`` records buffer residency in
        LRU order; ``rcr/pcs`` captures the context register (its CIDs
        and accumulators are derived from it).  Raw RCR accumulators are
        intentionally excluded: they can exceed 64 bits.
        """
        import numpy as np

        arrays = {f"tsl/{key}": value
                  for key, value in self.tsl.state_arrays().items()}
        cd_rows, valid, tags, ctrs, hslots = [], [], [], [], []
        for set_index, entries in enumerate(self.directory._sets):
            for cid, ps in entries.items():
                cd_rows.append((set_index, cid, int(ps.dirty)))
                valid.append([int(v) for v in ps.valid])
                tags.append(ps.tags)
                ctrs.append(ps.ctrs)
                hslots.append(ps.hslots)
        # Explicit row widths: an empty directory has no rows to infer
        # them from.
        shape = (len(cd_rows), self.config.patterns_per_set)
        arrays["cd/entries"] = np.array(cd_rows, dtype=np.int64).reshape(-1, 3)
        arrays["cd/valid"] = np.array(valid, dtype=np.int8).reshape(shape)
        arrays["cd/tags"] = np.array(tags, dtype=np.int64).reshape(shape)
        arrays["cd/ctrs"] = np.array(ctrs, dtype=np.int16).reshape(shape)
        arrays["cd/hslots"] = np.array(hslots, dtype=np.int16).reshape(shape)
        arrays["pb/entries"] = np.array(
            [(set_index, cid)
             for set_index, entries in enumerate(self.buffer._sets)
             for cid in entries], dtype=np.int64).reshape(-1, 2)
        arrays["rcr/pcs"] = np.array(self.rcr._pcs, dtype=np.uint64)
        arrays["now"] = np.array(self._now, dtype=np.int64)
        arrays["rng"] = np.array(self._rng.state, dtype=np.uint64)
        return arrays

    def bandwidth_bits(self) -> dict:
        """Read/write traffic between LLBP storage and the PB (Fig 11)."""
        set_bits = self.config.pattern_set_bits
        return {
            "read_bits": self.buffer.fills * set_bits,
            "write_bits": self.buffer.writebacks * set_bits,
        }

    def access_counts(self) -> dict:
        """Structure access counts for the energy model (Fig 12)."""
        return {
            "pb_accesses": self.buffer.hits + self.buffer.misses,
            "cd_accesses": self._cd_accesses,
            "llbp_accesses": self.buffer.fills + self.buffer.writebacks,
        }

    def run_counters(self) -> Dict[str, int]:
        """The component counters the engine copies into
        ``SimulationResult.extra`` (Figs 11, 12 and 15 read them); also
        emits them as the ``llbp.counters`` telemetry event."""
        extra = dict(self.counts)
        extra.update(self.access_counts())
        extra.update(self.bandwidth_bits())
        extra["prefetch_issued"] = self.prefetcher.issued
        extra["prefetch_delivered"] = self.prefetcher.delivered
        extra["prefetch_squashed"] = self.prefetcher.squashed
        extra["cd_occupancy_pct"] = int(100 * self.directory.occupancy())
        # Surface the structure counters the figures never print —
        # pattern-buffer hit rate and prefetch timeliness — through the
        # telemetry stream (no-op unless REPRO_TELEMETRY is set).
        telemetry.emit(
            "llbp.counters", predictor=self.name,
            pb_hits=self.buffer.hits, pb_misses=self.buffer.misses,
            fills=self.buffer.fills, writebacks=self.buffer.writebacks,
            prefetch_issued=self.prefetcher.issued,
            prefetch_delivered=self.prefetcher.delivered,
            prefetch_squashed=self.prefetcher.squashed,
            prefetch_directory_misses=self.prefetcher.directory_misses,
            cd_occupancy_pct=extra["cd_occupancy_pct"])
        return extra
