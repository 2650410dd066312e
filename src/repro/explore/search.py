"""Guided search: successive halving over the parallel executor.

The driver evaluates every config of a search space at a short trace
length, then repeatedly *promotes* only the most promising fraction to
geometrically longer traces until the survivors run at the full budget —
the classic successive-halving bandit, which spends most of the
simulation budget where it matters.  The promotion math lives in pure
functions (:func:`halving_schedule`, :func:`promote`, :func:`shuffled`)
so it is unit-testable without an engine; the driver itself is a thin
loop that turns each rung into :class:`~repro.parallel.SimJob` batches
and hands them to :func:`repro.parallel.run_jobs` — which is what makes
a search parallel, fault-tolerant, cache-aware and journal-resumable
for free.

Everything is deterministic in (space, schedule, seed): scores are pure
functions of simulation results, ties break on the key string, and the
seed only shuffles the initial evaluation order.  A re-run — after a
crash, or of the same search at another ``--jobs`` — produces the
identical frontier, which the golden-fixture tests assert byte for
byte.
"""

from __future__ import annotations

import dataclasses
import math
import time
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro import telemetry
from repro.common.rng import XorShift32
from repro.parallel import SimJob, run_jobs
from repro.sim.results import SimulationResult


@dataclasses.dataclass(frozen=True)
class Rung:
    """One stage of the halving ladder.

    ``survivors`` is how many configs *enter* this rung (every one of
    them is evaluated here exactly once, on every workload).
    """

    index: int
    instructions: int
    survivors: int


def halving_schedule(num_configs: int, base_instructions: int,
                     full_instructions: int, eta: int = 3,
                     min_survivors: int = 3) -> List[Rung]:
    """The rung ladder for ``num_configs`` configs.

    Instructions grow by ``eta`` per rung from ``base_instructions``,
    with the last rung pinned to exactly ``full_instructions``; entrants
    shrink by ``eta`` per rung but never below ``min_survivors`` (or
    below the field size, when the field is already smaller) — the
    floor is what keeps promotion starvation-free at the tail.

    Invariants (pinned by ``tests/explore/test_halving.py``): rung 0
    admits the whole field; survivor counts are non-increasing;
    instruction budgets are strictly increasing and end at the full
    budget; every (config, rung) pair is evaluated at most once, so
    :func:`schedule_cost` is exact, not an estimate.
    """
    if num_configs < 1:
        raise ValueError("need at least one config")
    if base_instructions < 1 or full_instructions < base_instructions:
        raise ValueError("need 1 <= base_instructions <= full_instructions")
    if eta < 2:
        raise ValueError("eta must be at least 2")
    if min_survivors < 1:
        raise ValueError("min_survivors must be positive")

    budgets = []
    instructions = base_instructions
    while instructions < full_instructions:
        budgets.append(instructions)
        instructions *= eta
    budgets.append(full_instructions)

    floor = min(num_configs, min_survivors)
    rungs = []
    survivors = num_configs
    for index, instructions in enumerate(budgets):
        rungs.append(Rung(index, instructions, survivors))
        survivors = max(floor, math.ceil(survivors / eta))
    return rungs


def schedule_cost(schedule: Sequence[Rung],
                  num_workloads: int = 1) -> int:
    """Total simulated instructions if every rung runs in full."""
    return sum(rung.survivors * rung.instructions * num_workloads
               for rung in schedule)


def promote(scores: Mapping[str, float], count: int) -> List[str]:
    """The ``count`` best configs: lowest score first, ties by key.

    Deterministic for any dict ordering, and starvation-free: a config
    strictly better than some survivor is always promoted, and exactly
    ``min(count, len(scores))`` configs advance.
    """
    ranked = sorted(scores, key=lambda key: (scores[key], key))
    return ranked[:count]


def shuffled(keys: Sequence[str], seed: int) -> List[str]:
    """Deterministic Fisher-Yates shuffle of ``keys`` by ``seed``.

    The shuffle fixes the *evaluation order* (hence which trace batches
    share a dispatch) without affecting scores; the same seed always
    yields the same order on any platform (XorShift32, no ``random``).
    """
    order = list(keys)
    rng = XorShift32(seed or 0x5EED)
    for i in range(len(order) - 1, 0, -1):
        j = rng.next() % (i + 1)
        order[i], order[j] = order[j], order[i]
    return order


def mpki(result: SimulationResult) -> float:
    """Mispredictions per 1000 measured instructions."""
    if result.instructions <= 0:
        return 0.0
    return result.mispredictions / result.instructions * 1000.0


@dataclasses.dataclass(frozen=True)
class Evaluation:
    """One config's scores at the rung it was last evaluated on."""

    key: str
    instructions: int
    per_workload: Mapping[str, float]

    @property
    def mean_mpki(self) -> float:
        return sum(self.per_workload.values()) / len(self.per_workload)


@dataclasses.dataclass(frozen=True)
class SearchOutcome:
    """Everything a search decided and measured, in decision order."""

    keys: Tuple[str, ...]                 # the shuffled starting field
    workloads: Tuple[str, ...]
    schedule: Tuple[Rung, ...]
    seed: int
    #: key -> rung index -> Evaluation, for every rung the key reached.
    trajectory: Mapping[str, Mapping[int, Evaluation]]
    #: configs that ran at the full budget, best mean-MPKI first.
    finalists: Tuple[Evaluation, ...]
    evaluations: int                      # simulations actually requested


def run_search(keys: Sequence[str], workloads: Sequence[str],
               schedule: Sequence[Rung], *, seed: int = 0,
               max_workers: Optional[int] = None,
               policy=None) -> SearchOutcome:
    """Drive the halving schedule over the executor; returns the outcome.

    ``policy``/``max_workers`` pass straight through to
    :func:`repro.parallel.run_jobs`, so a search inherits the executor's
    whole contract: results identical to serial simulation, retries and
    degradation on faults, and cached results checked against, and new
    ones recorded in, the checkpoint journal.
    """
    if not keys:
        raise ValueError("empty search space")
    if not workloads:
        raise ValueError("no workloads to evaluate on")
    if schedule[0].survivors != len(keys):
        raise ValueError("schedule was built for a different field size")

    order = shuffled(keys, seed)
    telemetry.emit("explore.search", configs=len(order),
                   workloads=list(workloads), rungs=len(schedule),
                   seed=seed)

    alive = list(order)
    trajectory: Dict[str, Dict[int, Evaluation]] = {key: {} for key in order}
    evaluations = 0
    scores: Dict[str, float] = {}

    for position, rung in enumerate(schedule):
        start = time.perf_counter()
        jobs = [SimJob(workload, key, rung.instructions)
                for key in alive for workload in workloads]
        evaluations += len(jobs)
        results = run_jobs(jobs, max_workers=max_workers, policy=policy)

        scores = {}
        for key in alive:
            per_workload = {
                workload: mpki(results[SimJob(workload, key,
                                              rung.instructions)])
                for workload in workloads
            }
            evaluation = Evaluation(key, rung.instructions, per_workload)
            trajectory[key][rung.index] = evaluation
            scores[key] = evaluation.mean_mpki
        telemetry.emit("explore.rung", rung=rung.index,
                       instructions=rung.instructions, configs=len(alive),
                       jobs=len(jobs),
                       seconds=round(time.perf_counter() - start, 4))

        if position + 1 < len(schedule):
            survivors = promote(scores, schedule[position + 1].survivors)
            telemetry.emit("explore.promote", rung=rung.index,
                           promoted=len(survivors),
                           dropped=len(alive) - len(survivors))
            alive = survivors

    finalists = tuple(
        trajectory[key][schedule[-1].index]
        for key in promote(scores, len(alive)))
    return SearchOutcome(
        keys=tuple(order), workloads=tuple(workloads),
        schedule=tuple(schedule), seed=seed, trajectory=trajectory,
        finalists=finalists, evaluations=evaluations)
