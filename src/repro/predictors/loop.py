"""Loop predictor: TAGE-SC-L's loop-exit component (§II-B).

Tracks loops with regular trip counts in a small set-associative table and
predicts the exit iteration once confident.  A global WITHLOOP counter
learns whether trusting the loop predictor over TAGE pays off.
"""

from __future__ import annotations

from typing import Optional

from repro.common.rng import XorShift32
from repro.predictors.base import BranchPredictor


class _LoopEntry:
    __slots__ = ("tag", "past_iter", "current_iter", "confidence", "age",
                 "direction")

    CONF_MAX = 3
    AGE_MAX = 255

    def __init__(self) -> None:
        self.tag = 0
        self.past_iter = 0
        self.current_iter = 0
        self.confidence = 0
        self.age = 0
        self.direction = True  # direction while the loop is iterating


class LoopResult:
    """Outcome of a loop-predictor lookup (``__slots__``: one per branch)."""

    __slots__ = ("valid", "pred", "hit", "way", "set_index")

    def __init__(self, valid: bool = False, pred: bool = False,
                 hit: bool = False, way: int = -1, set_index: int = 0) -> None:
        self.valid = valid            # confident prediction available
        self.pred = pred
        self.hit = hit
        self.way = way
        self.set_index = set_index


class LoopPredictor(BranchPredictor):
    """Set-associative loop table with confidence and age-based replacement."""

    name = "loop"

    def __init__(self, index_bits: int = 4, ways: int = 4,
                 tag_bits: int = 14, seed: int = 0x10057) -> None:
        self.index_bits = index_bits
        self.ways = ways
        self.tag_bits = tag_bits
        self._sets = 1 << index_bits
        self._set_mask = self._sets - 1
        self._tag_shift = 2 + index_bits
        self._tag_mask = (1 << tag_bits) - 1
        self.table = [[_LoopEntry() for _ in range(ways)] for _ in range(self._sets)]
        self._rng = XorShift32(seed)
        # WITHLOOP: signed confidence that loop predictions beat TAGE.
        self.withloop = -1
        self._withloop_lo, self._withloop_hi = -64, 63

    def _set_index(self, pc: int) -> int:
        return (pc >> 2) & (self._sets - 1)

    def _tag(self, pc: int) -> int:
        return (pc >> (2 + self.index_bits)) & self._tag_mask

    def lookup(self, pc: int) -> LoopResult:
        set_index = (pc >> 2) & self._set_mask
        res = LoopResult.__new__(LoopResult)
        res.valid = False
        res.pred = False
        res.hit = False
        res.way = -1
        res.set_index = set_index
        tag = (pc >> self._tag_shift) & self._tag_mask
        for way, entry in enumerate(self.table[set_index]):
            if entry.age > 0 and entry.tag == tag:
                res.hit = True
                res.way = way
                if entry.confidence == _LoopEntry.CONF_MAX and entry.past_iter > 0:
                    res.valid = True
                    exiting = entry.current_iter + 1 >= entry.past_iter
                    res.pred = (not entry.direction) if exiting else entry.direction
                break
        return res

    def predict(self, pc: int) -> LoopResult:
        return self.lookup(pc)

    def train(self, pc: int, taken: bool, meta: LoopResult) -> None:
        self.update(pc, taken, meta, tage_mispredicted=False)

    @property
    def use_loop(self) -> bool:
        """Whether confident loop predictions should override TAGE."""
        return self.withloop >= 0

    def train_withloop(self, loop_pred: bool, tage_pred: bool, taken: bool) -> None:
        if loop_pred == tage_pred:
            return
        if loop_pred == taken:
            if self.withloop < self._withloop_hi:
                self.withloop += 1
        elif self.withloop > self._withloop_lo:
            self.withloop -= 1

    def update(self, pc: int, taken: bool, res: LoopResult,
               tage_mispredicted: bool) -> None:
        """Train the hitting entry; maybe allocate after a TAGE mispredict."""
        if res.hit:
            entry = self.table[res.set_index][res.way]
            if res.valid:
                # Age confident entries that mispredict out of the table.
                if res.pred != taken:
                    entry.age = 0
                    entry.confidence = 0
                    entry.current_iter = 0
                    return
                if entry.age < _LoopEntry.AGE_MAX:
                    entry.age += 1

            if taken == entry.direction:
                entry.current_iter += 1
                if entry.past_iter and entry.current_iter > entry.past_iter:
                    # Loop ran longer than learned: trip count is irregular.
                    entry.confidence = 0
                    entry.past_iter = 0
                    entry.current_iter = 0
            else:
                # Exit observed: check against the learned trip count.
                observed = entry.current_iter + 1
                if entry.past_iter == 0:
                    entry.past_iter = observed
                elif entry.past_iter == observed:
                    if entry.confidence < _LoopEntry.CONF_MAX:
                        entry.confidence += 1
                else:
                    entry.past_iter = observed
                    entry.confidence = 0
                entry.current_iter = 0
        elif tage_mispredicted and not taken and self._rng.chance(1, 4):
            # Allocate on mispredicted not-taken outcomes (likely loop
            # exits); pick the oldest way.
            self._allocate(pc)

    def _allocate(self, pc: int) -> None:
        set_index = self._set_index(pc)
        ways = self.table[set_index]
        victim: Optional[_LoopEntry] = None
        for entry in ways:
            if victim is None or entry.age < victim.age:
                victim = entry
        assert victim is not None
        if victim.age > 0 and not self._rng.chance(1, 2):
            victim.age -= 1  # age out instead of replacing a live entry
            return
        victim.tag = self._tag(pc)
        victim.past_iter = 0
        victim.current_iter = 0
        victim.confidence = 0
        victim.age = 64
        victim.direction = True

    def storage_bits(self) -> int:
        # tag + past + current (14b each) + conf (2) + age (8) + dir (1)
        entry_bits = self.tag_bits + 14 + 14 + 2 + 8 + 1
        return self._sets * self.ways * entry_bits
