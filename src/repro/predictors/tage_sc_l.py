"""TAGE-SC-L: the paper's baseline predictor (64K TSL) and its scaled kin.

Composition order (following Seznec's TAGE-SC-L and §V-B's description of
where LLBP hooks in):

1. TAGE produces a base prediction.
2. An external provider (LLBP) may *override* the TAGE prediction when it
   matched a pattern with an equal-or-longer history (`base_override`).
3. The statistical corrector may flip the (possibly overridden) base
   prediction when statistically confident.
4. The loop predictor overrides everything when confident and trusted.

The lookup/finalize/train split lets the LLBP composite interpose at
step 2 without duplicating the SC/loop logic.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from repro.predictors.base import BranchPredictor
from repro.predictors.loop import LoopPredictor, LoopResult
from repro.predictors.statistical import ScResult, StatisticalCorrector
from repro.predictors.tage import Tage, TageConfig, TageResult


@dataclass(frozen=True)
class TslConfig:
    """Configuration of the composed TAGE-SC-L."""

    tage: TageConfig
    sc_index_bits: int = 10
    sc_history_lengths: Tuple[int, ...] = (3, 6, 11, 18, 27)
    loop_index_bits: int = 4
    loop_ways: int = 4
    name: str = "tsl"


class TslResult:
    """Combined metadata from one TAGE-SC-L lookup (``__slots__``)."""

    __slots__ = ("tage", "loop", "sc", "base_pred", "base_overridden", "pred")

    def __init__(self, tage: TageResult, loop: LoopResult,
                 sc: ScResult, base_pred: bool,
                 base_overridden: bool, pred: bool) -> None:
        self.tage = tage
        self.loop = loop
        self.sc = sc
        self.base_pred = base_pred            # TAGE pred, possibly overridden by LLBP
        self.base_overridden = base_overridden  # an external provider overrode TAGE
        self.pred = pred                      # final prediction


class TageScL(BranchPredictor):
    """The composed TAGE-SC-L predictor."""

    name = "tage-sc-l"

    def __init__(self, config: TslConfig, tage: Optional[Tage] = None) -> None:
        self.config = config
        self.tage = tage if tage is not None else Tage(config.tage)
        self.history = self.tage.history
        self.sc = StatisticalCorrector(config.sc_history_lengths,
                                       config.sc_index_bits)
        self.loop = LoopPredictor(config.loop_index_bits, config.loop_ways)

    # -- prediction ------------------------------------------------------------

    def lookup(self, pc: int, base_override: Optional[Tuple[bool, int]] = None,
               tage_res: Optional[TageResult] = None) -> TslResult:
        """Full lookup.

        ``base_override``: optional ``(direction, provider_ctr)`` from an
        external longest-history provider (LLBP); when given, it replaces
        TAGE's base prediction before SC/loop post-processing.
        ``tage_res``: a TAGE lookup already performed for this branch (the
        LLBP composite computes it first to compare history lengths).
        """
        if tage_res is None:
            tage_res = self.tage.lookup(pc)
        if base_override is not None:
            base_pred, provider_ctr = base_override
            base_overridden = True
            provider_valid = True
        else:
            base_pred = tage_res.pred
            provider_ctr = tage_res.provider_ctr
            base_overridden = False
            provider_valid = tage_res.provider >= 0

        pred = base_pred
        sc_res = self.sc.lookup(pc, base_pred, provider_ctr, provider_valid)
        if sc_res.use:
            pred = sc_res.pred

        loop_res = self.loop.lookup(pc)
        if loop_res.valid and self.loop.use_loop:
            pred = loop_res.pred

        return TslResult(tage_res, loop_res, sc_res, base_pred,
                         base_overridden, pred)

    def predict(self, pc: int) -> TslResult:
        return self.lookup(pc)

    # -- training ----------------------------------------------------------------

    def train(self, pc: int, taken: bool, meta: TslResult,
              suppress_tage_provider: bool = False) -> None:
        """Train all components on the resolved outcome.

        ``suppress_tage_provider`` implements §V-D's provider-based
        training when LLBP is the providing component.
        """

        if meta.loop.valid:
            self.loop.train_withloop(meta.loop.pred, meta.base_pred, taken)
        self.loop.update(pc, taken, meta.loop,
                         tage_mispredicted=meta.base_pred != taken)

        self.sc.train(pc, taken, meta.sc)
        self.sc.push_outcome(taken)

        self.tage.update(pc, taken, meta.tage,
                         suppress_provider=suppress_tage_provider)

    # -- history --------------------------------------------------------------------

    def update_history(self, pc: int, branch_type: int, taken: bool,
                       target: int) -> None:
        self.history.push_branch(pc, branch_type == 0, taken)

    def storage_bits(self) -> int:
        return (self.tage.storage_bits() + self.sc.storage_bits()
                + self.loop.storage_bits())

    def state_arrays(self) -> dict:
        """Snapshot of all mutable component state as numpy arrays.

        TAGE keys are prefixed ``tage/``, corrector keys ``sc/`` and
        loop-predictor keys ``loop/``; used by the engine-equivalence
        tests to assert the Python and array engines leave identical
        predictor state behind.
        """
        import numpy as np

        arrays = {f"tage/{key}": value
                  for key, value in self.tage.state_arrays().items()}
        sc = self.sc
        arrays["sc/bias"] = np.array(sc.bias_table, dtype=np.int16)
        arrays["sc/tables"] = np.array(sc.tables, dtype=np.int16)
        arrays["sc/history"] = np.array(sc.history, dtype=np.uint64)
        arrays["sc/threshold"] = np.array(
            [sc.threshold, sc._tc], dtype=np.int64)
        loop = self.loop
        arrays["loop/entries"] = np.array(
            [[e.tag, e.past_iter, e.current_iter, e.confidence,
              e.age, int(e.direction)]
             for ways in loop.table for e in ways], dtype=np.int64)
        arrays["loop/withloop"] = np.array(loop.withloop, dtype=np.int64)
        arrays["loop/rng"] = np.array(loop._rng.state, dtype=np.uint64)
        return arrays
