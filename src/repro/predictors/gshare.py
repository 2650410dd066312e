"""GShare: global-history XOR predictor.

Included as the related-work substrate (§VIII discusses Jiménez's
pre-selection technique in the context of a gshare predictor) and as an
easy-to-reason-about baseline for tests.
"""

from __future__ import annotations

from repro.predictors.base import BranchPredictor


class GShare(BranchPredictor):
    """Classic gshare: ``index = pc ^ global_history``, 2-bit counters."""

    name = "gshare"

    def __init__(self, index_bits: int = 14, history_bits: int = 14) -> None:
        if index_bits < 1 or history_bits < 1:
            raise ValueError("index_bits and history_bits must be >= 1")
        self.index_bits = index_bits
        self.history_bits = history_bits
        self._mask = (1 << index_bits) - 1
        self._hist_mask = (1 << history_bits) - 1
        self.table = [0] * (1 << index_bits)
        self.history = 0

    def _index(self, pc: int) -> int:
        return ((pc >> 2) ^ self.history) & self._mask

    def predict(self, pc: int) -> bool:
        return self.table[self._index(pc)] >= 0

    def train(self, pc: int, taken: bool, meta: bool) -> None:
        i = self._index(pc)
        v = self.table[i]
        if taken:
            if v < 1:
                self.table[i] = v + 1
        elif v > -2:
            self.table[i] = v - 1

    def update_history(self, pc: int, branch_type: int, taken: bool,
                       target: int) -> None:
        # gshare traditionally tracks only conditional outcomes.
        if branch_type == 0:  # BranchType.COND
            self.history = ((self.history << 1) | (1 if taken else 0)) & self._hist_mask

    def storage_bits(self) -> int:
        return 2 * (1 << self.index_bits)

    def state_arrays(self) -> dict:
        """Snapshot of the mutable predictor state as numpy arrays.

        Every engine (Python or array) must leave identical state behind
        for the same trace; the equivalence tests compare these dicts.
        """
        import numpy as np

        return {
            "table": np.array(self.table, dtype=np.int8),
            "history": np.array(self.history, dtype=np.uint64),
        }
