"""Statistical corrector: TAGE-SC-L's second auxiliary component (§II-B).

A GEHL-style perceptron-like corrector: several tables of signed counters
indexed by PC hashed with different slices of (its own) global outcome
history, plus a bias table keyed by (PC, TAGE's prediction) and a term
derived from TAGE's provider confidence.  When the weighted sum disagrees
with TAGE and its magnitude clears a dynamically-adapted threshold, the
corrector flips the prediction — catching statistically biased branches
TAGE mis-learns.
"""

from __future__ import annotations

from typing import List, Sequence


class ScResult:
    """Outcome of a corrector lookup (``__slots__``: allocated per branch)."""

    __slots__ = ("sum", "pred", "use", "base_pred", "indices", "bias_index")

    def __init__(self, sum: int = 0, pred: bool = False, use: bool = False,
                 base_pred: bool = False, indices: Sequence[int] = (),
                 bias_index: int = 0) -> None:
        self.sum = sum
        self.pred = pred              # corrector's own direction
        self.use = use                # confident enough to override TAGE
        self.base_pred = base_pred    # the prediction being corrected
        self.indices = indices
        self.bias_index = bias_index


class StatisticalCorrector:
    """GEHL-style corrector with a dynamic confidence threshold."""

    # Counter range: 6-bit signed.
    CTR_LO, CTR_HI = -32, 31

    def __init__(self, history_lengths: Sequence[int] = (3, 6, 11, 18, 27),
                 index_bits: int = 10, seed: int = 0) -> None:
        if not history_lengths:
            raise ValueError("need at least one history component")
        self.history_lengths = tuple(history_lengths)
        self.index_bits = index_bits
        self._mask = (1 << index_bits) - 1
        # Per-component history-window masks, precomputed for lookup.
        self._hist_masks = tuple((1 << length) - 1 for length in self.history_lengths)
        self.tables: List[List[int]] = [
            [0] * (1 << index_bits) for _ in self.history_lengths
        ]
        self.bias_table = [0] * (1 << index_bits)
        self.history = 0  # corrector-local outcome history
        self.threshold = 6
        self._tc = 0  # threshold-adaptation counter
        self.overrides = 0
        self.good_overrides = 0

    # -- lookup ---------------------------------------------------------------

    def lookup(self, pc: int, base_pred: bool, provider_ctr: int,
               provider_valid: bool) -> ScResult:
        pcx = pc >> 2
        mask = self._mask
        bias_index = (pcx * 2 + (1 if base_pred else 0)) & mask
        # Component c hashes the PC with its history window; its counter
        # votes centred, 2 * ctr + 1.
        history = self.history
        index_bits = self.index_bits
        indices: List[int] = []
        total = 2 * self.bias_table[bias_index] + 1
        for shift, (hist_mask, table) in enumerate(
                zip(self._hist_masks, self.tables), 2):
            h = history & hist_mask
            idx = (pcx ^ (pcx >> shift) ^ h ^ (h >> index_bits)) & mask
            indices.append(idx)
            total += 2 * table[idx] + 1
        # TAGE's confidence participates in the vote (centered magnitude).
        if provider_valid:
            conf = abs(2 * provider_ctr + 1)
            total += (conf + 1) * (2 if base_pred else -2)
        else:
            total += 4 if base_pred else -4

        res = ScResult.__new__(ScResult)
        res.sum = total
        res.pred = pred = total >= 0
        res.base_pred = base_pred
        res.indices = indices
        res.bias_index = bias_index
        res.use = pred != base_pred and abs(total) >= self.threshold
        return res

    # -- training ---------------------------------------------------------------

    def train(self, pc: int, taken: bool, res: ScResult) -> None:
        final_pred = res.pred if res.use else res.base_pred
        if res.use:
            self.overrides += 1
            if res.pred == taken:
                self.good_overrides += 1

        # Threshold adaptation: when the corrector disagreed with TAGE,
        # nudge the confidence bar toward fewer harmful flips.
        if res.pred != res.base_pred:
            if res.pred == taken:
                self._tc -= 1
                if self._tc <= -64:
                    self._tc = 0
                    if self.threshold > 4:
                        self.threshold -= 1
            else:
                self._tc += 1
                if self._tc >= 64:
                    self._tc = 0
                    if self.threshold < 64:
                        self.threshold += 1

        # Train counters on a final misprediction or low confidence.
        if final_pred != taken or abs(res.sum) < 4 * self.threshold:
            self._adjust(self.bias_table, res.bias_index, taken)
            for table, idx in zip(self.tables, res.indices):
                self._adjust(table, idx, taken)

    def _adjust(self, table: List[int], idx: int, taken: bool) -> None:
        v = table[idx]
        if taken:
            if v < self.CTR_HI:
                table[idx] = v + 1
        elif v > self.CTR_LO:
            table[idx] = v - 1

    # -- history ------------------------------------------------------------------

    def push_outcome(self, taken: bool) -> None:
        self.history = ((self.history << 1) | (1 if taken else 0)) & ((1 << 64) - 1)

    def storage_bits(self) -> int:
        entries = (len(self.tables) + 1) * (1 << self.index_bits)
        return entries * 6
