"""Hashed perceptron: signed-weight tables over folded global history.

Jiménez & Lin, "Dynamic Branch Prediction with Perceptrons" (HPCA
2001), in the table-hashed form used by production cores: instead of
one weight per history bit, the global history is cut into equal
segments, each segment is XOR-folded down to the table index width and
hashed with the PC, and one signed weight is read per table.  The
prediction is the sign of the summed weights; training bumps every
contributing weight toward the outcome whenever the prediction was
wrong *or* the sum's magnitude is below the training threshold
(threshold training keeps weights calibrated instead of saturating).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Optional

from repro.predictors.base import BranchPredictor


def default_threshold(history_bits: int) -> int:
    """The classic perceptron threshold fit: floor(1.93 * h + 14)."""
    return int(1.93 * history_bits + 14)


@dataclass(frozen=True)
class PerceptronConfig:
    """Geometry of a :class:`HashedPerceptron` (registry family ``percep:``)."""

    tables: int = 8           # weight tables; table 0 is the PC-indexed bias
    row_bits: int = 10        # log2 rows per table
    weight_bits: int = 8      # signed weight width
    history_bits: int = 56    # total global history, split over tables-1 segments
    threshold: Optional[int] = None  # None -> default_threshold(history_bits)

    def __post_init__(self) -> None:
        if self.tables < 2:
            raise ValueError("tables must be >= 2 (bias + at least one history table)")
        if not 1 <= self.row_bits <= 24:
            raise ValueError("row_bits must be in [1, 24]")
        if not 2 <= self.weight_bits <= 16:
            raise ValueError("weight_bits must be in [2, 16]")
        if not 1 <= self.history_bits <= 64:
            raise ValueError("history_bits must be in [1, 64]")
        if self.history_bits % (self.tables - 1) != 0:
            raise ValueError("history_bits must divide evenly over tables-1 segments")
        if self.threshold is not None and self.threshold < 1:
            raise ValueError("threshold must be >= 1")

    @property
    def segment_bits(self) -> int:
        return self.history_bits // (self.tables - 1)

    def effective_threshold(self) -> int:
        if self.threshold is not None:
            return self.threshold
        return default_threshold(self.history_bits)

    def storage_bits(self) -> int:
        return self.tables * (1 << self.row_bits) * self.weight_bits


class PerceptronMeta(NamedTuple):
    pred: bool
    total: int


def fold_segment(value: int, row_bits: int) -> int:
    """XOR-fold ``value`` down to ``row_bits`` bits."""
    mask = (1 << row_bits) - 1
    folded = 0
    while value:
        folded ^= value & mask
        value >>= row_bits
    return folded


class HashedPerceptron(BranchPredictor):
    """Sum of per-table signed weights indexed by pc ^ folded history."""

    name = "percep"

    def __init__(self, config: PerceptronConfig = PerceptronConfig()) -> None:
        self.config = config
        self._rmask = (1 << config.row_bits) - 1
        self._hist_mask = (1 << config.history_bits) - 1
        self._seg_mask = (1 << config.segment_bits) - 1
        self._theta = config.effective_threshold()
        self._wmin = -(1 << (config.weight_bits - 1))
        self._wmax = (1 << (config.weight_bits - 1)) - 1
        self.tables = [[0] * (1 << config.row_bits) for _ in range(config.tables)]
        self.history = 0

    def _indices(self, pc: int) -> "list[int]":
        base = (pc >> 2) & self._rmask
        indices = [base]
        seg_bits = self.config.segment_bits
        for t in range(1, self.config.tables):
            segment = (self.history >> ((t - 1) * seg_bits)) & self._seg_mask
            indices.append((base ^ fold_segment(segment, self.config.row_bits))
                           & self._rmask)
        return indices

    def predict(self, pc: int) -> PerceptronMeta:
        total = 0
        for table, idx in zip(self.tables, self._indices(pc)):
            total += table[idx]
        return PerceptronMeta(pred=total >= 0, total=total)

    def train(self, pc: int, taken: bool, meta: PerceptronMeta) -> None:
        if meta.pred == taken and abs(meta.total) > self._theta:
            return
        step = 1 if taken else -1
        for table, idx in zip(self.tables, self._indices(pc)):
            w = table[idx] + step
            if self._wmin <= w <= self._wmax:
                table[idx] = w

    def update_history(self, pc: int, branch_type: int, taken: bool,
                       target: int) -> None:
        if branch_type == 0:  # BranchType.COND
            self.history = ((self.history << 1) | (1 if taken else 0)) & self._hist_mask

    def storage_bits(self) -> int:
        return self.config.storage_bits()

    def state_arrays(self) -> dict:
        import numpy as np

        arrays = {
            "table%d" % t: np.array(rows, dtype=np.int32)
            for t, rows in enumerate(self.tables)
        }
        arrays["history"] = np.array(self.history, dtype=np.uint64)
        return arrays
