"""Perfect conditional branch predictor: the upper bound of Fig 10."""

from __future__ import annotations

from repro.predictors.base import BranchPredictor


class PerfectPredictor(BranchPredictor):
    """An oracle: the engine resolves its prediction as always correct.

    ``predict`` returns None; the engine treats None metadata from this
    predictor as "predicted == outcome".  ``train`` does nothing.
    """

    name = "perfect"

    def predict(self, pc: int) -> None:
        return None

    def train(self, pc: int, taken: bool, meta: None) -> None:
        return
