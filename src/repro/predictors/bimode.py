"""Bi-Mode: choice predictor + taken/not-taken direction banks.

Lee, Chen & Mudge, "The Bi-Mode Branch Predictor" (MICRO 1997), as
popularised by the ChampSim reference implementation.  The destructive
aliasing of a single gshare table is split across two direction banks:
branches whose choice counter says "mostly taken" index the taken bank,
the rest index the not-taken bank, so branches of opposite bias no
longer fight over one counter.

Update rule (per the paper): the *selected* direction bank always
trains toward the outcome; the choice table trains toward the outcome
unless the choice was wrong but the selected direction bank was right
(the bank absorbed the exception, keep the choice stable).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.predictors.base import BranchPredictor


@dataclass(frozen=True)
class BiModeConfig:
    """Geometry of a :class:`BiMode` predictor (registry family ``bimode:``)."""

    choice_bits: int = 13      # log2 entries in the PC-indexed choice table
    direction_bits: int = 13   # log2 entries in each direction bank
    history_bits: int = 13     # global-history length folded into the banks

    def __post_init__(self) -> None:
        if self.choice_bits < 1 or self.direction_bits < 1:
            raise ValueError("choice_bits and direction_bits must be >= 1")
        if not 1 <= self.history_bits <= 64:
            raise ValueError("history_bits must be in [1, 64]")

    def storage_bits(self) -> int:
        return 2 * (1 << self.choice_bits) + 2 * 2 * (1 << self.direction_bits)


class BiMode(BranchPredictor):
    """Choice table (PC-indexed) steering two gshare-style direction banks."""

    name = "bimode"

    def __init__(self, config: BiModeConfig = BiModeConfig()) -> None:
        self.config = config
        self._cmask = (1 << config.choice_bits) - 1
        self._dmask = (1 << config.direction_bits) - 1
        self._hist_mask = (1 << config.history_bits) - 1
        self.choice = [0] * (1 << config.choice_bits)
        # Direction banks are biased at reset: the taken bank weakly taken,
        # the not-taken bank weakly not-taken, matching their roles.
        self.taken_bank = [0] * (1 << config.direction_bits)
        self.nottaken_bank = [-1] * (1 << config.direction_bits)
        self.history = 0

    def _indices(self, pc: int) -> "tuple[int, int]":
        ci = (pc >> 2) & self._cmask
        di = ((pc >> 2) ^ self.history) & self._dmask
        return ci, di

    def predict(self, pc: int) -> bool:
        ci, di = self._indices(pc)
        bank = self.taken_bank if self.choice[ci] >= 0 else self.nottaken_bank
        return bank[di] >= 0

    def train(self, pc: int, taken: bool, meta: bool) -> None:
        # history is unchanged between predict and train, so the indices
        # recompute to the same values the prediction used.
        ci, di = self._indices(pc)
        cv = self.choice[ci]
        choice_taken = cv >= 0
        bank = self.taken_bank if choice_taken else self.nottaken_bank
        direction = bank[di] >= 0
        # Choice: train toward the outcome unless the choice missed but
        # the selected bank covered for it.
        if not (choice_taken != taken and direction == taken):
            if taken:
                if cv < 1:
                    self.choice[ci] = cv + 1
            elif cv > -2:
                self.choice[ci] = cv - 1
        # Selected direction bank always trains toward the outcome.
        v = bank[di]
        if taken:
            if v < 1:
                bank[di] = v + 1
        elif v > -2:
            bank[di] = v - 1

    def update_history(self, pc: int, branch_type: int, taken: bool,
                       target: int) -> None:
        if branch_type == 0:  # BranchType.COND
            self.history = ((self.history << 1) | (1 if taken else 0)) & self._hist_mask

    def storage_bits(self) -> int:
        return self.config.storage_bits()

    def state_arrays(self) -> dict:
        import numpy as np

        return {
            "choice": np.array(self.choice, dtype=np.int8),
            "taken_bank": np.array(self.taken_bank, dtype=np.int8),
            "nottaken_bank": np.array(self.nottaken_bank, dtype=np.int8),
            "history": np.array(self.history, dtype=np.uint64),
        }
