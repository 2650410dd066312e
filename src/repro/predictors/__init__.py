"""Branch predictors: the baseline stack the paper builds on.

The package provides every predictor configuration the paper evaluates:

* ``Bimodal`` and ``GShare`` — classic baselines (gshare is the substrate
  of the related-work comparison in §VIII).
* ``Tage`` — the core TAgged GEometric predictor with folded-history
  hashing, usefulness-guided replacement and tick-throttled allocation.
* ``LoopPredictor`` and ``StatisticalCorrector`` — TAGE-SC-L's auxiliary
  components.
* ``TageScL`` — the composed TAGE-SC-L, size-scalable (64K … 1M).
* Infinite-capacity variants (``Inf TAGE`` / ``Inf TSL``) for the limit
  study of §II-C.
* ``PerfectPredictor`` — the speedup upper bound of Fig 10.

``presets`` names the exact configurations used throughout the paper.
"""

from repro.predictors.base import BranchPredictor
from repro.predictors.history import HistorySpec, HistorySet, GlobalHistory
from repro.predictors.bimodal import Bimodal
from repro.predictors.bimode import BiMode, BiModeConfig
from repro.predictors.gshare import GShare
from repro.predictors.perceptron import HashedPerceptron, PerceptronConfig
from repro.predictors.tage import Tage, TageConfig, TageResult
from repro.predictors.loop import LoopPredictor
from repro.predictors.statistical import StatisticalCorrector
from repro.predictors.tage_sc_l import TageScL, TslConfig
from repro.predictors.perfect import PerfectPredictor
from repro.predictors.presets import (
    tsl_64k,
    tsl_scaled,
    tsl_infinite,
    tage_infinite,
    TAGE_HISTORY_LENGTHS,
    LLBP_HISTORY_LENGTHS,
)

__all__ = [
    "BranchPredictor",
    "HistorySpec",
    "HistorySet",
    "GlobalHistory",
    "Bimodal",
    "BiMode",
    "BiModeConfig",
    "GShare",
    "HashedPerceptron",
    "PerceptronConfig",
    "Tage",
    "TageConfig",
    "TageResult",
    "LoopPredictor",
    "StatisticalCorrector",
    "TageScL",
    "TslConfig",
    "PerfectPredictor",
    "tsl_64k",
    "tsl_scaled",
    "tsl_infinite",
    "tage_infinite",
    "TAGE_HISTORY_LENGTHS",
    "LLBP_HISTORY_LENGTHS",
]
