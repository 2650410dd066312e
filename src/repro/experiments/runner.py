"""The cached simulation runner.

Predictor keys are strings so results can be cached on disk and shared
across figures; the key grammar lives in
:mod:`repro.predictors.registry` (``parse_key`` / ``make_predictor``).

Results are cached under the cache directory keyed by (workload,
instructions, key, RESULTS_VERSION); bump RESULTS_VERSION whenever
predictor or workload behaviour changes.  The disk cache is always on:
an empty ``REPRO_CACHE_DIR`` is how a run starts cold.

These functions answer one process's lookups and do not consult the
checkpoint journal; a grid of simulations goes through
:func:`repro.parallel.run_jobs`, which checks the cached results it
serves against the journal and records what it settles.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path
from typing import Dict, Optional

from repro import telemetry
from repro.predictors import registry
from repro.sim.engine import run_simulation
from repro.sim.multi import run_simulation_batch
from repro.sim.results import SimulationResult
from repro.traces.store import cache_root
from repro.workloads.catalog import generate_workload

RESULTS_VERSION = 6  # v6: prefetch_delivered joined SimulationResult.extra


def _cache_dir() -> Path:
    return cache_root() / "results"


def _cache_path(workload: str, instructions: int, key: str) -> Path:
    def _safe(part: str) -> str:
        return part.replace(":", "_").replace(",", "+").replace("=", "-")
    return _cache_dir() / (f"{_safe(workload)}-i{instructions}-{_safe(key)}"
                           f"-v{RESULTS_VERSION}.json")


def _to_json(result: SimulationResult) -> dict:
    return {
        "workload": result.workload,
        "predictor": result.predictor,
        "instructions": result.instructions,
        "warmup_instructions": result.warmup_instructions,
        "branches": result.branches,
        "cond_branches": result.cond_branches,
        "mispredictions": result.mispredictions,
        "per_pc_mispredictions": {str(k): v for k, v in result.per_pc_mispredictions.items()},
        "per_pc_executions": {str(k): v for k, v in result.per_pc_executions.items()},
        "extra": result.extra,
    }


def _from_json(data: dict) -> SimulationResult:
    return SimulationResult(
        workload=data["workload"],
        predictor=data["predictor"],
        instructions=data["instructions"],
        warmup_instructions=data["warmup_instructions"],
        branches=data["branches"],
        cond_branches=data["cond_branches"],
        mispredictions=data["mispredictions"],
        per_pc_mispredictions={int(k): v for k, v in data["per_pc_mispredictions"].items()},
        per_pc_executions={int(k): v for k, v in data["per_pc_executions"].items()},
        extra=data.get("extra", {}),
    )


_memory_cache: Dict[tuple, SimulationResult] = {}
_useful_events: Dict[tuple, list] = {}


def clear_memory_cache() -> None:
    _memory_cache.clear()
    _useful_events.clear()


def _read_cache(path: Path) -> Optional[SimulationResult]:
    """Load a cached result; a missing or unreadable file is a miss.

    Truncated or corrupt cache files (an interrupted writer on another
    cache implementation, disk trouble) must never take the run down —
    the result is simply recomputed and the file rewritten.
    """
    try:
        with open(path) as fh:
            return _from_json(json.load(fh))
    except (OSError, ValueError, KeyError, TypeError):
        return None


def _write_cache(path: Path, result: SimulationResult) -> None:
    """Atomically publish a result file (write-temp + rename).

    The temp name embeds the pid so concurrent writers (the parallel
    executor's workers) never clobber each other's in-progress file;
    ``os.replace`` makes the final publish atomic, so readers only ever
    see complete files.
    """
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    try:
        # One json.dumps call takes the C encoder; json.dump streams
        # through the pure-Python one for the same bytes.
        with open(tmp, "w") as fh:
            fh.write(json.dumps(_to_json(result)))
        os.replace(tmp, path)
    except OSError:
        # Caching is best-effort; never fail the simulation over it.
        try:
            os.unlink(tmp)
        except OSError:
            pass


def _resolve_instructions(instructions: Optional[int]) -> int:
    if instructions is None:
        from repro.experiments.common import experiment_instructions

        return experiment_instructions()
    return instructions


def peek_result(workload: str, key: str,
                instructions: Optional[int] = None) -> Optional[SimulationResult]:
    """Return the cached result if one exists, without simulating."""
    instructions = _resolve_instructions(instructions)
    memo = (workload, key, instructions)
    cached = _memory_cache.get(memo)
    if cached is not None:
        telemetry.emit("runner.result", workload=workload, key=key,
                       instructions=instructions, source="memory")
        return cached
    result = _read_cache(_cache_path(workload, instructions, key))
    if result is not None:
        _memory_cache[memo] = result
        telemetry.emit("runner.result", workload=workload, key=key,
                       instructions=instructions, source="disk")
    return result


def seed_result(workload: str, key: str, instructions: int,
                result: SimulationResult) -> None:
    """Install an externally computed result into the in-memory cache."""
    _memory_cache[(workload, key, instructions)] = result


def drop_result(workload: str, key: str,
                instructions: Optional[int] = None) -> None:
    """Evict one result from the memory *and* disk caches.

    The fault-tolerance layer calls this when a checkpoint journal
    proves a cached entry corrupt (digest mismatch): the poisoned bytes
    must not answer the retry that replaces them.
    """
    instructions = _resolve_instructions(instructions)
    _memory_cache.pop((workload, key, instructions), None)
    try:
        os.unlink(_cache_path(workload, instructions, key))
    except OSError:
        pass


def get_result(workload: str, key: str,
               instructions: Optional[int] = None) -> SimulationResult:
    """Simulate ``key`` on ``workload`` (or return the cached result)."""
    instructions = _resolve_instructions(instructions)

    cached = peek_result(workload, key, instructions)
    if cached is not None:
        return cached

    start = time.perf_counter() if telemetry.enabled() else 0.0
    trace = generate_workload(workload, instructions)
    predictor = registry.make_predictor(key)
    result = run_simulation(trace, predictor)
    telemetry.emit("runner.result", workload=workload, key=key,
                   instructions=instructions, source="simulated",
                   seconds=time.perf_counter() - start)

    _write_cache(_cache_path(workload, instructions, key), result)
    _memory_cache[(workload, key, instructions)] = result
    return result


def run_batch(workload: str, keys, instructions: Optional[int] = None):
    """Simulate many predictors over ``workload`` with one trace load.

    The counterpart of calling :func:`get_result` once per key, with the
    trace generated/loaded once and all cache misses simulated by
    :func:`repro.sim.multi.run_simulation_batch` (bit-identical to the
    per-key path, caches included).  Keys already cached are returned
    from cache and excluded from the pass; duplicate keys are simulated
    once.  Returns one :class:`SimulationResult` per key, in order.
    """
    instructions = _resolve_instructions(instructions)
    results: Dict[str, SimulationResult] = {}
    missing = []
    for key in dict.fromkeys(keys):
        cached = peek_result(workload, key, instructions)
        if cached is not None:
            results[key] = cached
        else:
            missing.append(key)

    if missing:
        start = time.perf_counter() if telemetry.enabled() else 0.0
        trace = generate_workload(workload, instructions)
        predictors = [registry.make_predictor(key) for key in missing]
        batch = run_simulation_batch(trace, predictors)
        seconds = time.perf_counter() - start
        for key, result in zip(missing, batch):
            telemetry.emit("runner.result", workload=workload, key=key,
                           instructions=instructions, source="batched",
                           batched=len(missing), seconds=seconds)
            _write_cache(_cache_path(workload, instructions, key), result)
            _memory_cache[(workload, key, instructions)] = result
            results[key] = result
    return [results[key] for key in keys]


def useful_events(workload: str, instructions: Optional[int] = None) -> list:
    """The useful-pattern events of Inf TAGE over ``workload`` (Figs 3b
    and 5), from one traced run per (workload, instructions) in this
    process.

    The events cover the whole run, warmup included, so the run needs
    no warmup.  They are memoised in memory only, beside the results.
    """
    instructions = _resolve_instructions(instructions)
    memo = (workload, instructions)
    events = _useful_events.get(memo)
    if events is None:
        from repro.analysis.working_set import traced_inf_tage

        trace = generate_workload(workload, instructions)
        events = _useful_events[memo] = traced_inf_tage(trace).useful_events
    return events
