"""Analytic core timing model (paper Table II, Figs 1 and 10).

A full cycle-accurate core is outside this reproduction's scope (the
paper itself notes ChampSim's core model is limited, §VII-B).  Figures 1
and 10 only need two quantities — cycles wasted on conditional-branch
mispredictions and speedup as a function of MPKI — which a top-down
analytic model captures:

    cycles = base_cpi * instructions + penalty * mispredictions

``base_cpi`` is the misprediction-free CPI of the modelled 6-wide core on
server code (calibrated so the 64K TSL baseline wastes ~9% of cycles at
~2.9 MPKI, matching the paper's Sapphire Rapids measurement), and
``penalty`` is the pipeline-flush cost per misprediction.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.sim.results import SimulationResult


@dataclass(frozen=True)
class CoreParams:
    """Simulated core parameters (paper Table II plus timing calibration)."""

    frequency_ghz: float = 4.0
    fetch_width: int = 6
    rob_entries: int = 512
    lq_entries: int = 248
    sq_entries: int = 122
    btb_entries: int = 16384
    btb_ways: int = 8
    l1i_kib: int = 32
    l1i_ways: int = 8
    l1d_kib: int = 48
    l1d_ways: int = 12
    l2_mib: int = 2
    llc_mib: int = 8
    # Timing calibration (see module docstring).
    base_cpi: float = 0.57
    mispredict_penalty: float = 20.0


@dataclass
class TimingResult:
    """Timing outcome of one simulation under the analytic core model."""

    instructions: int
    base_cycles: float
    mispredict_cycles: float

    @property
    def cycles(self) -> float:
        return self.base_cycles + self.mispredict_cycles

    @property
    def wasted_fraction(self) -> float:
        """Fraction of cycles lost to conditional mispredictions (Fig 1)."""
        total = self.cycles
        return self.mispredict_cycles / total if total else 0.0

    def speedup_over(self, baseline: "TimingResult") -> float:
        """Speedup of self relative to ``baseline`` (>1 means faster)."""
        if self.cycles <= 0:
            return 0.0
        return baseline.cycles / self.cycles


class CoreModel:
    """Applies :class:`CoreParams` timing to simulation results."""

    def __init__(self, params: CoreParams = CoreParams()) -> None:
        self.params = params

    def timing(self, result: SimulationResult) -> TimingResult:
        return self.timing_from_counts(result.instructions, result.mispredictions)

    def timing_from_counts(self, instructions: int,
                           mispredictions: int) -> TimingResult:
        if instructions < 0 or mispredictions < 0:
            raise ValueError("counts must be non-negative")
        return TimingResult(
            instructions=instructions,
            base_cycles=self.params.base_cpi * instructions,
            mispredict_cycles=self.params.mispredict_penalty * mispredictions,
        )
