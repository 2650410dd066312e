"""Common predictor interface and statistics.

The simulation engine drives predictors through three calls per branch:

1. ``predict(pc)`` for conditional branches — returns a metadata object
   whose truthiness-independent ``pred`` field is the predicted direction
   (metadata carries whatever the predictor needs to train later);
2. ``train(pc, taken, meta)`` — resolve the conditional branch;
3. ``update_history(pc, branch_type, taken, target)`` — called for *every*
   branch (conditional and unconditional) so global history, path history
   and — for LLBP — the rolling context register stay in sync.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict


@dataclass
class PredictorStats:
    """Counters every predictor keeps; the engine aggregates them."""

    lookups: int = 0
    mispredictions: int = 0
    extra: Dict[str, int] = field(default_factory=dict)

    def bump(self, key: str, amount: int = 1) -> None:
        self.extra[key] = self.extra.get(key, 0) + amount


class BranchPredictor:
    """Abstract predictor; see module docstring for the driving protocol."""

    name = "abstract"

    def __init__(self) -> None:
        self.stats = PredictorStats()

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
