"""Trace-driven simulation loop.

Mirrors the paper's methodology (§VI): the predictor is warmed up on a
prefix of the trace, then mispredictions are counted over the measured
region.  Every branch — conditional or not — updates predictor history;
only conditional branches are predicted and trained.

:func:`run_simulation` hands every predictor the array engine supports
to :mod:`repro.sim.array` (the default engine).  The Python loops here
run under ``engine="python"`` and for the limit-study and front-end
predictors the array engine does not fuse, so they are still
specialised instead of paying per-branch dispatch costs:

* the warmup/measured split is computed once from the cumulative gap sum,
  so the measured loops carry no per-branch "are we measuring yet" check;
* perfect-predictor, per-PC-collection and ``advance`` handling are
  hoisted into pre-selected loop variants instead of per-branch
  ``isinstance``/``None`` tests;
* records are consumed through :meth:`Trace.iter_tuples`, which iterates
  chunked ``tolist()`` views of the numpy columns.

:func:`run_simulation_reference` keeps the original generic loop as the
oracle the equivalence tests compare against — the specialised variants
must match it misprediction-for-misprediction.
"""

from __future__ import annotations

import os
import time
import warnings
from typing import Dict, Optional

import numpy as np

from repro import telemetry
from repro.predictors.base import BranchPredictor
from repro.predictors.perfect import PerfectPredictor
from repro.sim.results import SimulationResult
from repro.traces.trace import Trace

#: Fraction of the trace used for warmup when not given explicitly; the
#: paper warms 100M of 300M total instructions.
DEFAULT_WARMUP_FRACTION = 1.0 / 3.0

#: Engine implementations selectable per run.  ``array`` (the default) is
#: the fused codegen engine in :mod:`repro.sim.array`, bit-identical where
#: supported; ``python`` is the serial loop below, the oracle and the
#: fallback for the predictors the array engine does not fuse.
ENGINES = ("python", "array")

#: Environment variable consulted when no explicit ``engine=`` is given.
ENGINE_ENV_VAR = "REPRO_ENGINE"


def resolve_engine(engine: Optional[str] = None) -> str:
    """Resolve the engine name: argument > ``REPRO_ENGINE`` env > array.

    ``array`` runs every predictor it supports and falls back to the
    Python engine for the rest (see :func:`run_simulation`); ``python``
    selects the oracle loop outright.  Raises ``ValueError`` for unknown
    names so typos fail loudly rather than silently running the wrong
    engine.
    """
    if engine is None:
        engine = os.environ.get(ENGINE_ENV_VAR) or "array"
    if engine not in ENGINES:
        raise ValueError(
            f"unknown simulation engine {engine!r}; expected one of "
            f"{', '.join(ENGINES)}")
    return engine


def _run_warmup(trace: Trace, stop: int, predict, train, update_history,
                advance) -> None:
    """Drive the predictor over records ``[0, stop)`` without counting."""
    if advance is None:
        for pc, btype, taken_i, target, gap in trace.iter_tuples(0, stop):
            taken = taken_i == 1
            if btype == 0:
                train(pc, taken, predict(pc))
            update_history(pc, btype, taken, target)
    else:
        for pc, btype, taken_i, target, gap in trace.iter_tuples(0, stop):
            advance(gap)
            taken = taken_i == 1
            if btype == 0:
                train(pc, taken, predict(pc))
            update_history(pc, btype, taken, target)


def _measure(rows, predict, train, update_history, advance) -> int:
    """Measured-region loop: no per-PC collection.

    Branch/conditional totals are derived from the trace columns by the
    caller, so the loop counts only mispredictions.
    """
    mispredictions = 0
    if advance is None:
        for pc, btype, taken_i, target, gap in rows:
            taken = taken_i == 1
            if btype == 0:
                meta = predict(pc)
                if meta is True or meta is False:
                    pred = meta
                else:
                    pred = meta.pred
                if pred != taken:
                    mispredictions += 1
                train(pc, taken, meta)
            update_history(pc, btype, taken, target)
    else:
        for pc, btype, taken_i, target, gap in rows:
            advance(gap)
            taken = taken_i == 1
            if btype == 0:
                meta = predict(pc)
                if meta is True or meta is False:
                    pred = meta
                else:
                    pred = meta.pred
                if pred != taken:
                    mispredictions += 1
                train(pc, taken, meta)
            update_history(pc, btype, taken, target)
    return mispredictions


def _measure_per_pc(rows, predict, train, update_history, advance,
                    per_pc_misp: Dict[int, int],
                    per_pc_exec: Dict[int, int]) -> int:
    """Measured-region loop that also collects per-PC statistics."""
    mispredictions = 0
    exec_get = per_pc_exec.get
    misp_get = per_pc_misp.get
    if advance is None:
        for pc, btype, taken_i, target, gap in rows:
            taken = taken_i == 1
            if btype == 0:
                meta = predict(pc)
                if meta is True or meta is False:
                    pred = meta
                else:
                    pred = meta.pred
                per_pc_exec[pc] = exec_get(pc, 0) + 1
                if pred != taken:
                    mispredictions += 1
                    per_pc_misp[pc] = misp_get(pc, 0) + 1
                train(pc, taken, meta)
            update_history(pc, btype, taken, target)
    else:
        for pc, btype, taken_i, target, gap in rows:
            advance(gap)
            taken = taken_i == 1
            if btype == 0:
                meta = predict(pc)
                if meta is True or meta is False:
                    pred = meta
                else:
                    pred = meta.pred
                per_pc_exec[pc] = exec_get(pc, 0) + 1
                if pred != taken:
                    mispredictions += 1
                    per_pc_misp[pc] = misp_get(pc, 0) + 1
                train(pc, taken, meta)
            update_history(pc, btype, taken, target)
    return mispredictions


def _measure_perfect(rows, predict, train, update_history, advance,
                     per_pc_exec: Optional[Dict[int, int]]) -> int:
    """Measured-region loop for a perfect predictor (never mispredicts)."""
    for pc, btype, taken_i, target, gap in rows:
        if advance is not None:
            advance(gap)
        taken = taken_i == 1
        if btype == 0:
            meta = predict(pc)
            if per_pc_exec is not None:
                per_pc_exec[pc] = per_pc_exec.get(pc, 0) + 1
            train(pc, taken, meta)
        update_history(pc, btype, taken, target)
    return 0


def run_simulation(
    trace: Trace,
    predictor: BranchPredictor,
    warmup_instructions: Optional[int] = None,
    collect_per_pc: bool = False,
    engine: Optional[str] = None,
) -> SimulationResult:
    """Run ``predictor`` over ``trace`` and return measured statistics.

    ``engine`` selects the implementation (see :func:`resolve_engine`);
    the array engine is bit-identical for the predictor families it
    supports and transparently falls back to the Python loop (with a
    ``sim.engine_fallback`` telemetry event) for the rest.
    """
    if resolve_engine(engine) == "array":
        from repro.sim import array

        reason = array.unsupported_reason(predictor)
        if reason is None:
            return array.run_simulation_array(
                trace, predictor, warmup_instructions, collect_per_pc)
        telemetry.emit(
            "sim.engine_fallback", workload=trace.name,
            predictor=getattr(predictor, "name", type(predictor).__name__),
            reason=reason)

    if warmup_instructions is None:
        warmup_instructions = int(trace.num_instructions * DEFAULT_WARMUP_FRACTION)

    n = len(trace)
    if n:
        cumulative = np.cumsum(trace.gaps, dtype=np.int64)
        total_instructions = int(cumulative[-1])
        # Record i is measured iff the instruction count *including* its
        # gap exceeds the warmup budget (matches the reference loop's
        # ``instructions > warmup_instructions`` test).
        split = int(np.searchsorted(cumulative, warmup_instructions, side="right"))
    else:
        total_instructions = 0
        split = 0

    if n and split >= n:
        warnings.warn(
            f"warmup ({warmup_instructions} instructions) consumed the entire "
            f"trace {trace.name!r} ({total_instructions} instructions); the "
            "measured region is empty and all statistics will be zero",
            RuntimeWarning,
            stacklevel=2,
        )

    predict = predictor.predict
    train = predictor.train
    update_history = predictor.update_history
    advance = getattr(predictor, "advance", None)
    predictor_name = getattr(predictor, "name", type(predictor).__name__)

    # Telemetry is phase-grained by design: one enabled-check and two
    # events per simulation, zero additions to the per-branch loops.
    telemetry_on = telemetry.enabled()
    phase_start = time.perf_counter() if telemetry_on else 0.0

    _run_warmup(trace, split, predict, train, update_history, advance)

    if telemetry_on:
        now = time.perf_counter()
        warmup_seconds = now - phase_start
        telemetry.emit(
            "sim.phase", phase="warmup", workload=trace.name,
            predictor=predictor_name, branches=split,
            instructions=warmup_instructions, seconds=warmup_seconds)
        phase_start = now

    per_pc_misp: Dict[int, int] = {}
    per_pc_exec: Dict[int, int] = {}
    rows = trace.iter_tuples(split, n)
    if isinstance(predictor, PerfectPredictor):
        mispredictions = _measure_perfect(
            rows, predict, train, update_history, advance,
            per_pc_exec if collect_per_pc else None)
    elif collect_per_pc:
        mispredictions = _measure_per_pc(
            rows, predict, train, update_history, advance,
            per_pc_misp, per_pc_exec)
    else:
        mispredictions = _measure(
            rows, predict, train, update_history, advance)

    if telemetry_on:
        measure_seconds = time.perf_counter() - phase_start
        telemetry.emit(
            "sim.phase", phase="measure", workload=trace.name,
            predictor=predictor_name, branches=n - split,
            mispredictions=mispredictions, seconds=measure_seconds)
        telemetry.emit(
            "sim.run", workload=trace.name, predictor=predictor_name,
            branches=n, instructions=total_instructions,
            mispredictions=mispredictions,
            seconds=warmup_seconds + measure_seconds)

    # Totals the reference loop counts per-branch fall out of the columns.
    branches = n - split
    cond_branches = int((trace.types[split:] == 0).sum()) if split < n else 0

    if split < n:
        measured_instr_start = int(cumulative[split - 1]) if split else 0
    else:
        measured_instr_start = total_instructions

    finalize = getattr(predictor, "finalize_stats", None)
    if finalize is not None:
        finalize()

    return SimulationResult(
        extra=dict(predictor.stats.extra),
        workload=trace.name,
        predictor=predictor_name,
        instructions=total_instructions - measured_instr_start,
        warmup_instructions=measured_instr_start,
        branches=branches,
        cond_branches=cond_branches,
        mispredictions=mispredictions,
        per_pc_mispredictions=per_pc_misp,
        per_pc_executions=per_pc_exec,
    )


def run_simulation_reference(
    trace: Trace,
    predictor: BranchPredictor,
    warmup_instructions: Optional[int] = None,
    collect_per_pc: bool = False,
) -> SimulationResult:
    """The original generic simulation loop, kept as a correctness oracle.

    Slower than :func:`run_simulation` but with no loop specialisation at
    all; the equivalence tests assert the two produce bit-identical
    :class:`SimulationResult` values for every predictor family.
    """
    if warmup_instructions is None:
        warmup_instructions = int(trace.num_instructions * DEFAULT_WARMUP_FRACTION)

    is_perfect = isinstance(predictor, PerfectPredictor)
    predict = predictor.predict
    train = predictor.train
    update_history = predictor.update_history
    advance = getattr(predictor, "advance", None)

    instructions = 0
    measured_instr_start: Optional[int] = None
    branches = 0
    cond_branches = 0
    mispredictions = 0
    per_pc_misp: Dict[int, int] = {}
    per_pc_exec: Dict[int, int] = {}

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
                if collect_per_pc:
                    per_pc_exec[pc] = per_pc_exec.get(pc, 0) + 1
                    if pred != taken:
                        per_pc_misp[pc] = per_pc_misp.get(pc, 0) + 1
            train(pc, taken, meta)
        update_history(pc, btype, taken, target)

    if measured_instr_start is None:
        measured_instr_start = instructions
    measured_instructions = instructions - measured_instr_start

    finalize = getattr(predictor, "finalize_stats", None)
    if finalize is not None:
        finalize()

    return SimulationResult(
        extra=dict(predictor.stats.extra),
        workload=trace.name,
        predictor=getattr(predictor, "name", type(predictor).__name__),
        instructions=measured_instructions,
        warmup_instructions=measured_instr_start,
        branches=branches,
        cond_branches=cond_branches,
        mispredictions=mispredictions,
        per_pc_mispredictions=per_pc_misp,
        per_pc_executions=per_pc_exec,
    )
