"""Bimodal predictor: TAGE's untagged fallback table (§II-B)."""

from __future__ import annotations

from repro.predictors.base import BranchPredictor


class Bimodal(BranchPredictor):
    """PC-indexed table of 2-bit saturating counters.

    Values live in [-2, 1]; ``>= 0`` predicts taken.  This is both a
    standalone baseline and the BIM fallback inside :class:`~repro.predictors.tage.Tage`.
    """

    name = "bimodal"

    def __init__(self, index_bits: int = 13) -> None:
        if index_bits < 1:
            raise ValueError("index_bits must be >= 1")
        self.index_bits = index_bits
        self._mask = (1 << index_bits) - 1
        self.table = [0] * (1 << index_bits)

    def _index(self, pc: int) -> int:
        return (pc >> 2) & self._mask

    def lookup(self, pc: int) -> bool:
        return self.table[self._index(pc)] >= 0

    def predict(self, pc: int) -> bool:
        return self.lookup(pc)

    def train(self, pc: int, taken: bool, meta: bool) -> None:
        self.update(pc, taken)

    def update(self, pc: int, taken: bool) -> None:
        i = self._index(pc)
        v = self.table[i]
        if taken:
            if v < 1:
                self.table[i] = v + 1
        elif v > -2:
            self.table[i] = v - 1

    def storage_bits(self) -> int:
        return 2 * (1 << self.index_bits)

    def state_arrays(self) -> dict:
        """Snapshot of the counter table (see ``GShare.state_arrays``)."""
        import numpy as np

        return {"table": np.array(self.table, dtype=np.int8)}
