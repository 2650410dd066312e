"""Trace-driven simulation loop.

Mirrors the paper's methodology (§VI): the predictor is warmed up on a
prefix of the trace, then mispredictions are counted over the measured
region.  Every branch — conditional or not — updates predictor history;
only conditional branches are predicted and trained.

:func:`run_simulation` hands every run to :mod:`repro.sim.array` (the
default engine), which raises ``ValueError`` for a predictor it does
not fuse; ``engine="python"`` runs :func:`run_simulation_reference`
instead, the oracle: one generic loop that the array engine must match
misprediction-for-misprediction, and the only engine for any other
predictor.

The array engine is imported with this module, not on the first run:
the process that launches a batch then imports it once, before the
first fork, and every child inherits the loaded module.
"""

from __future__ import annotations

import os
import time
import warnings
from typing import Dict, Optional

from repro import telemetry
from repro.predictors.base import BranchPredictor
from repro.predictors.perfect import PerfectPredictor
from repro.sim import array
from repro.sim.results import SimulationResult
from repro.traces.trace import Trace

#: Fraction of the trace used for warmup when not given explicitly; the
#: paper warms 100M of 300M total instructions.
DEFAULT_WARMUP_FRACTION = 1.0 / 3.0

#: Engine implementations selectable per run.  ``array`` (the default) is
#: the fused codegen engine in :mod:`repro.sim.array`, bit-identical for
#: every predictor it supports; ``python`` is the reference loop below,
#: the oracle, which runs any predictor.
ENGINES = ("python", "array")

#: Environment variable consulted when no explicit ``engine=`` is given.
ENGINE_ENV_VAR = "REPRO_ENGINE"


def resolve_engine(engine: Optional[str] = None) -> str:
    """Resolve the engine name: argument > ``REPRO_ENGINE`` env > array.

    ``array`` runs every predictor it supports and raises for the rest
    (see :func:`run_simulation`); ``python`` selects the oracle loop.
    Raises ``ValueError`` for unknown names so typos fail loudly rather
    than silently running the wrong engine.
    """
    if engine is None:
        engine = os.environ.get(ENGINE_ENV_VAR) or "array"
    if engine not in ENGINES:
        raise ValueError(
            f"unknown simulation engine {engine!r}; expected one of "
            f"{', '.join(ENGINES)}")
    return engine


def run_simulation(
    trace: Trace,
    predictor: BranchPredictor,
    warmup_instructions: Optional[int] = None,
    engine: Optional[str] = None,
) -> SimulationResult:
    """Run ``predictor`` over ``trace`` and return measured statistics.

    ``engine`` selects the implementation (see :func:`resolve_engine`);
    the array engine is bit-identical for the predictor families it
    supports and raises ``ValueError`` for the rest, which run only with
    ``engine="python"``.
    """
    if resolve_engine(engine) == "array":
        return array.run_simulation_array(trace, predictor, warmup_instructions)
    return run_simulation_reference(trace, predictor, warmup_instructions)


def run_simulation_reference(
    trace: Trace,
    predictor: BranchPredictor,
    warmup_instructions: Optional[int] = None,
) -> SimulationResult:
    """The generic simulation loop: the Python engine and the oracle.

    No loop specialisation at all; the equivalence tests assert that the
    array engine produces bit-identical :class:`SimulationResult` values
    for every predictor family it supports.  With telemetry on, the run
    emits the same ``sim.run`` event as the array engine.
    """
    if warmup_instructions is None:
        warmup_instructions = int(trace.num_instructions * DEFAULT_WARMUP_FRACTION)

    is_perfect = isinstance(predictor, PerfectPredictor)
    predict = predictor.predict
    train = predictor.train
    update_history = predictor.update_history
    advance = getattr(predictor, "advance", None)
    predictor_name = getattr(predictor, "name", type(predictor).__name__)

    instructions = 0
    measured_instr_start: Optional[int] = None
    branches = 0
    cond_branches = 0
    mispredictions = 0
    per_pc_misp: Dict[int, int] = {}
    per_pc_exec: Dict[int, int] = {}

    start = time.perf_counter()
    for pc, btype, taken_i, target, gap in trace.iter_tuples():
        instructions += gap
        if advance is not None:
            advance(gap)
        taken = taken_i == 1
        measuring = instructions > warmup_instructions
        if measuring and measured_instr_start is None:
            measured_instr_start = instructions - gap
        if measuring:
            branches += 1

        if btype == 0:  # conditional
            meta = predict(pc)
            if is_perfect:
                pred = taken
            elif isinstance(meta, bool):
                pred = meta
            else:
                pred = meta.pred
            if measuring:
                cond_branches += 1
                if pred != taken:
                    mispredictions += 1
                per_pc_exec[pc] = per_pc_exec.get(pc, 0) + 1
                if pred != taken:
                    per_pc_misp[pc] = per_pc_misp.get(pc, 0) + 1
            train(pc, taken, meta)
        update_history(pc, btype, taken, target)
    end = time.perf_counter()

    if measured_instr_start is None:
        measured_instr_start = instructions
        if len(trace):
            warnings.warn(
                f"warmup ({warmup_instructions} instructions) consumed the "
                f"entire trace {trace.name!r} ({instructions} instructions); "
                "the measured region is empty and all statistics will be "
                "zero",
                RuntimeWarning,
                stacklevel=2,
            )
    measured_instructions = instructions - measured_instr_start

    telemetry.emit(
        "sim.run", workload=trace.name, predictor=predictor_name,
        engine="python", branches=len(trace), instructions=instructions,
        mispredictions=mispredictions, seconds=end - start)

    return SimulationResult(
        extra=predictor.run_counters(),
        workload=trace.name,
        predictor=predictor_name,
        instructions=measured_instructions,
        warmup_instructions=measured_instr_start,
        branches=branches,
        cond_branches=cond_branches,
        mispredictions=mispredictions,
        per_pc_mispredictions=per_pc_misp,
        per_pc_executions=per_pc_exec,
    )
