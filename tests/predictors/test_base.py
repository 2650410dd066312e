"""Predictor base-class contract."""

import pytest

from repro.predictors.base import BranchPredictor


def test_abstract_methods_raise():
    predictor = BranchPredictor()
    with pytest.raises(NotImplementedError):
        predictor.predict(0)
    with pytest.raises(NotImplementedError):
        predictor.train(0, True, None)
    # History update and advance are optional no-ops.
    predictor.update_history(0, 0, True, 0)
    assert predictor.storage_bits() == 0
    assert predictor.run_counters() == {}
