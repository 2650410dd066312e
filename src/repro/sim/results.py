"""Simulation result records."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict


@dataclass
class SimulationResult:
    """Aggregate outcome of running one predictor over one trace.

    All misprediction-derived metrics cover only the *measured* region
    (after warmup), matching the paper's warm-then-measure methodology.
    """

    workload: str
    predictor: str
    instructions: int                 # measured instructions
    warmup_instructions: int
    branches: int                     # measured branches (all types)
    cond_branches: int                # measured conditional branches
    mispredictions: int
    per_pc_mispredictions: Dict[int, int] = field(default_factory=dict)
    per_pc_executions: Dict[int, int] = field(default_factory=dict)
    extra: Dict[str, float] = field(default_factory=dict)

    @property
    def mpki(self) -> float:
        """Mispredictions per kilo-instruction (the paper's headline metric)."""
        if self.instructions <= 0:
            return 0.0
        return 1000.0 * self.mispredictions / self.instructions

    @property
    def accuracy(self) -> float:
        """Fraction of conditional branches predicted correctly."""
        if self.cond_branches <= 0:
            return 1.0
        return 1.0 - self.mispredictions / self.cond_branches

    def mpki_reduction_vs(self, baseline: "SimulationResult") -> float:
        """Percent MPKI reduction relative to ``baseline`` (Fig 9's metric)."""
        if baseline.mpki <= 0:
            return 0.0
        return 100.0 * (baseline.mpki - self.mpki) / baseline.mpki
