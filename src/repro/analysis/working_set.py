"""Branch working-set characterisation (paper §II-D, Fig 3).

Static branches are sorted by their misprediction count under the 64K TSL
baseline; the studies then ask (a) how mispredictions concentrate on the
hottest branches and how that changes with predictor capacity (Fig 3a),
and (b) how many *useful patterns* each branch needs under infinite
capacity (Fig 3b).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence

from repro.predictors.infinite import (
    InfiniteTage,
    UsefulEvent,
    useful_pattern_counts,
)
from repro.predictors.presets import tage_infinite
from repro.sim.engine import run_simulation
from repro.sim.results import SimulationResult
from repro.traces.trace import Trace


def baseline_order(baseline: SimulationResult) -> List[int]:
    """Static branch PCs sorted by baseline mispredictions (descending)."""
    misp = baseline.per_pc_mispredictions
    pcs = list(baseline.per_pc_executions)
    pcs.sort(key=lambda pc: misp.get(pc, 0), reverse=True)
    return pcs


def cumulative_misprediction_fractions(
    result: SimulationResult,
    order: Sequence[int],
    normalise_to: SimulationResult,
) -> List[float]:
    """Fig 3a curve: cumulative mispredictions along ``order``.

    Normalised to the *baseline's* total so curves of different
    configurations are directly comparable (the paper normalises to
    64K TSL).
    """
    total = sum(normalise_to.per_pc_mispredictions.values())
    if total <= 0:
        return [0.0] * len(order)
    misp = result.per_pc_mispredictions
    out: List[float] = []
    acc = 0
    for pc in order:
        acc += misp.get(pc, 0)
        out.append(acc / total)
    return out


def top_branch_share(result: SimulationResult, order: Sequence[int],
                     top: int) -> float:
    """Fraction of ``result``'s mispredictions on the ``top`` hottest
    branches of ``order`` (paper: top 0.8% ≈ 40%)."""
    total = sum(result.per_pc_mispredictions.values())
    if total <= 0:
        return 0.0
    misp = result.per_pc_mispredictions
    return sum(misp.get(pc, 0) for pc in order[:top]) / total


@dataclass
class UsefulPatternsResult:
    """Fig 3b data: useful patterns per static branch."""

    counts_by_pc: Dict[int, int]
    order: List[int]

    @property
    def counts_in_order(self) -> List[int]:
        return [self.counts_by_pc.get(pc, 0) for pc in self.order]

    @property
    def mean(self) -> float:
        counts = [c for c in self.counts_by_pc.values() if c > 0]
        return sum(counts) / len(counts) if counts else 0.0

    def top_n_mean(self, n: int) -> float:
        top = self.counts_in_order[:n]
        return sum(top) / len(top) if top else 0.0


def traced_inf_tage(trace: Trace,
                    warmup_instructions: int = 0) -> InfiniteTage:
    """Run Inf TAGE over ``trace`` with useful-pattern tracing on.

    Returns its :class:`InfiniteTage`, whose ``useful_events`` hold every
    useful-pattern event of the run (warmup included), numbered by
    conditional-branch ordinal.  A pattern is useful when it provides a
    correct prediction while the alternative prediction is wrong (§II-D).
    """
    predictor = tage_infinite()
    predictor.tage.trace_useful = True
    run_simulation(trace, predictor, warmup_instructions=warmup_instructions)
    return predictor.tage


def useful_patterns_study(events: Sequence[UsefulEvent],
                          baseline: SimulationResult) -> UsefulPatternsResult:
    """Useful patterns per static branch under Inf TAGE (Fig 3b), from
    the ``useful_events`` of a :func:`traced_inf_tage` run."""
    return UsefulPatternsResult(
        counts_by_pc=useful_pattern_counts(events),
        order=baseline_order(baseline),
    )
