"""Multi-predictor simulation over one shared trace.

Every figure in the paper's evaluation runs the *same* workload trace
under many predictor configurations.  :func:`run_simulation_batch` runs
each member through :func:`run_simulation` in turn and returns results
**bit-identical** to N separate calls (the equivalence tests assert full
:class:`SimulationResult` equality, per-PC dictionaries included).  On
the array engine the per-trace hash columns memoised on ``trace.aux``
are built once per geometry, so members sharing a geometry share that
work; on the Python engine every member runs the reference loop.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from repro.predictors.base import BranchPredictor
from repro.sim.engine import run_simulation
from repro.sim.results import SimulationResult
from repro.traces.trace import Trace


def run_simulation_batch(
    trace: Trace,
    predictors: Sequence[BranchPredictor],
    warmup_instructions: Optional[int] = None,
    engine: Optional[str] = None,
) -> List[SimulationResult]:
    """Run every predictor over ``trace``.

    Returns one :class:`SimulationResult` per predictor, in order, each
    bit-identical to ``run_simulation(trace, predictor, ...)`` run in
    isolation.  Predictors must be distinct instances: a shared one would
    carry the first member's trained state into the next.
    """
    if len({id(p) for p in predictors}) != len(predictors):
        raise ValueError("batch members must be distinct predictor "
                         "instances")
    return [
        run_simulation(trace, predictor, warmup_instructions, engine)
        for predictor in predictors
    ]
