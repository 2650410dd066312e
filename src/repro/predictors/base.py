"""Common predictor interface.

The simulation engine drives predictors through three calls per branch:

1. ``predict(pc)`` for conditional branches — returns a metadata object
   whose truthiness-independent ``pred`` field is the predicted direction
   (metadata carries whatever the predictor needs to train later);
2. ``train(pc, taken, meta)`` — resolve the conditional branch;
3. ``update_history(pc, branch_type, taken, target)`` — called for *every*
   branch (conditional and unconditional) so global history, path history
   and — for LLBP — the rolling context register stay in sync.

The engine counts conditional branches and mispredictions itself, into
the :class:`~repro.sim.results.SimulationResult` it returns; a predictor
adds its own structure counters through
:meth:`BranchPredictor.run_counters`.
"""

from __future__ import annotations

from typing import Any, Dict


class BranchPredictor:
    """Abstract predictor; see module docstring for the driving protocol."""

    name = "abstract"

    def predict(self, pc: int) -> Any:
        """Predict the direction of the conditional branch at ``pc``.

        Returns an opaque metadata object with at least a boolean ``pred``
        attribute (or is itself a bool for trivial predictors).
        """
        raise NotImplementedError

    def train(self, pc: int, taken: bool, meta: Any) -> None:
        """Train on the resolved outcome of a prior ``predict`` call."""
        raise NotImplementedError

    def update_history(self, pc: int, branch_type: int, taken: bool,
                       target: int) -> None:
        """Observe a retired branch of any type (history maintenance)."""

    def storage_bits(self) -> int:
        """Approximate state budget in bits (for Table III-style reporting)."""
        return 0

    def run_counters(self) -> Dict[str, int]:
        """Structure counters of the run so far, which the engine copies
        into ``SimulationResult.extra`` (none by default)."""
        return {}
