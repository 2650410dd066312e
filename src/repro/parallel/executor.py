"""Process-pool scheduler for simulation jobs, with fault tolerance.

The unit of *accounting* is a :class:`SimJob` — one (workload,
instructions, predictor-key) triple, exactly the granularity of the
on-disk result cache.  :func:`run_jobs` takes any number of jobs and:

1. deduplicates them (figures share baselines like ``tsl64``);
2. answers what it can from the in-memory and on-disk caches without
   touching the pool (re-running anything a checkpoint journal proves
   corrupt);
3. groups the rest into :class:`_Task` units — jobs sharing a
   (workload, instructions) pair, which therefore decode the *same*
   trace — and fans the tasks across the process pool that
   :mod:`repro.parallel.backend.local` owns, where each worker runs the
   batched cached runner (``runner.run_batch``: one decode pass updates
   every predictor in the group, bit-identical to running them
   separately; results land in the shared disk cache atomically);
4. seeds the parent's in-memory cache with every result, so subsequent
   serial code (``get_result``) never re-simulates.

Failures do not abort the batch.  Each task runs under a
:class:`~repro.parallel.retry.RetryPolicy`: an attempt that raises is
retried with bounded, jittered exponential backoff; an attempt that
exceeds its timeout (``policy.timeout`` × the task's job count) has its
(hung) worker killed and the pool rebuilt; a worker that dies mid-task
(OOM-kill, segfault) breaks the pool, which is rebuilt too.  A broken
pool fails every task in flight, so a break charges an attempt only
when one task was in flight; after a break with more, none is charged,
and those *suspects* rerun first, one at a time, until a break names
the task that kills its worker.  A retried task recovers
incrementally: members whose results were already
published to the disk cache answer from it, so only the unfinished
remainder re-simulates.  If the pool proves irrecoverable — more
rebuilds than ``policy.max_pool_rebuilds`` — the batch degrades to
serial in-process execution rather than failing.  Only a task that
exhausts ``max_attempts`` raises to the caller.

Every failure path is exercisable deterministically through
:mod:`repro.parallel.faults` (``REPRO_FAULTS``), and each recovery
emits a telemetry event (``parallel.retry`` / ``.timeout`` /
``.worker_lost`` / ``.pool_rebuild`` / ``.degraded``) so
``scripts/report.py`` can account for a bumpy run.

Workers inherit ``REPRO_*`` environment knobs from the parent, which is
what keeps parallel results bit-identical to serial runs: the same trace
generation, the same predictor construction, the same engine — retries
re-run the same pure computation, so a recovered batch equals a clean
one.
"""

from __future__ import annotations

import os
import time
import warnings
from concurrent.futures import FIRST_COMPLETED, CancelledError, Future, wait
from concurrent.futures.process import BrokenProcessPool
from typing import Dict, Iterable, List, NamedTuple, Optional, Sequence, Set, Tuple, Union

from repro import telemetry
from repro.parallel import faults
from repro.parallel.backend.local import LocalBackend
from repro.parallel.retry import RetryPolicy, backoff_delay
from repro.sim.results import SimulationResult


class SimJob(NamedTuple):
    """One simulation: a workload/instruction-budget/predictor triple."""

    workload: str
    key: str
    instructions: int


class _Task(NamedTuple):
    """The dispatch unit: jobs sharing one (workload, instructions) pair.

    All members simulate the same trace, so a worker loads it once and
    runs them as one batch (``runner.run_batch``).  The task is also the retry,
    fault-injection and timeout unit — its deadline scales with its job
    count — while journal records and results stay per member.
    """

    jobs: Tuple[SimJob, ...]

    @property
    def workload(self) -> str:
        return self.jobs[0].workload

    @property
    def instructions(self) -> int:
        return self.jobs[0].instructions

    @property
    def keys(self) -> str:
        return ",".join(job.key for job in self.jobs)


def _make_tasks(jobs: Sequence[SimJob]) -> List[_Task]:
    """Group jobs by (workload, instructions), in first-occurrence order."""
    groups: Dict[Tuple[str, int], List[SimJob]] = {}
    for job in jobs:
        groups.setdefault((job.workload, job.instructions), []).append(job)
    return [_Task(tuple(group)) for group in groups.values()]


def _worker_count(env: str) -> Optional[int]:
    """Parse a ``REPRO_JOBS`` value; ``None`` means "use the CPU count".

    The variable is user input that reaches this code deep inside a run
    (possibly inside a worker), so a malformed value must degrade, not
    raise: anything non-integer or non-positive warns and falls back.
    """
    env = env.strip()
    if not env:
        return None
    try:
        value = int(env)
    except ValueError:
        warnings.warn(
            f"REPRO_JOBS={env!r} is not an integer; "
            "falling back to the CPU count",
            RuntimeWarning, stacklevel=3)
        return None
    if value <= 0:
        warnings.warn(
            f"REPRO_JOBS={value} is not positive; "
            "falling back to the CPU count",
            RuntimeWarning, stacklevel=3)
        return None
    return value


def default_jobs() -> int:
    """Worker count: REPRO_JOBS if set and valid, else the CPU count."""
    count = _worker_count(os.environ.get("REPRO_JOBS", ""))
    if count is None:
        return os.cpu_count() or 1
    return count


def make_jobs(pairs: Iterable[Tuple[str, str]],
              instructions: Optional[int] = None) -> List[SimJob]:
    """Expand (workload, key) pairs into jobs at the experiment budget."""
    if instructions is None:
        from repro.experiments.common import experiment_instructions

        instructions = experiment_instructions()
    return [SimJob(w, k, instructions) for w, k in pairs]


def _simulate_task(task: _Task, fault: Optional[str] = None,
                   in_worker: bool = True) -> List[SimulationResult]:
    """Worker entry point: run the cached runner for one task.

    Module-level so it pickles; imports stay inside so the worker pays
    for them once, after the fork/spawn.  Workers inherit
    ``REPRO_TELEMETRY`` with the rest of the environment and write their
    events to their own per-pid JSONL file, which is what makes per-task
    wall time and worker utilization reportable after the run.

    A single-job task goes through ``runner.get_result`` — byte-for-byte
    the pre-batching worker behaviour — while a multi-job task runs one
    batch via ``runner.run_batch`` (members already in the disk
    cache, e.g. from an interrupted earlier attempt, are answered from
    it rather than re-simulated).  Either way the results are identical.

    ``fault`` is this attempt's share of the chaos plan, decided by the
    parent (see :mod:`repro.parallel.faults`); it fires before any work
    or cache write, so a faulted attempt leaves no partial state.
    """
    from repro.experiments import runner

    jobs = task.jobs
    faults.apply(fault, jobs[0] if len(jobs) == 1 else task, in_worker)
    timed = telemetry.enabled()
    start = time.perf_counter() if timed else 0.0
    if len(jobs) == 1:
        job = jobs[0]
        results = [runner.get_result(job.workload, job.key,
                                     job.instructions)]
    else:
        results = runner.run_batch(task.workload, [job.key for job in jobs],
                                   task.instructions)
    if timed:
        event = dict(workload=task.workload, key=task.keys,
                     instructions=task.instructions,
                     seconds=time.perf_counter() - start)
        if len(jobs) > 1:
            event["batched"] = len(jobs)
        telemetry.emit("parallel.job", **event)
    return results


#: What a pool batch settles each job to: its result, or the error that
#: exhausted its task's retries.
_Outcome = Union[SimulationResult, BaseException]


class _TaskState:
    """Per-task retry bookkeeping for one pool batch."""

    __slots__ = ("attempts", "fault")

    def __init__(self) -> None:
        self.attempts = 0
        self.fault = faults.assign_next()


def _journal_record(journal, job: SimJob, result: SimulationResult) -> None:
    if journal is not None:
        journal.record_result((job.workload, job.key, job.instructions),
                              result)


def _run_serial_attempts(task: _Task, state: _TaskState, policy: RetryPolicy,
                         journal) -> List[SimulationResult]:
    """Run one task in-process, honouring its remaining retry budget."""
    while True:
        try:
            results = _simulate_task(task, state.fault.take(),
                                     in_worker=False)
        except KeyboardInterrupt:
            raise
        except Exception as error:
            state.attempts += 1
            if state.attempts >= policy.max_attempts:
                raise
            delay = backoff_delay(state.attempts, policy, key=task.jobs[0])
            telemetry.emit("parallel.retry", workload=task.workload,
                           key=task.keys, attempt=state.attempts,
                           delay=round(delay, 4), error=type(error).__name__,
                           where="serial")
            time.sleep(delay)
        else:
            for job, result in zip(task.jobs, results):
                _journal_record(journal, job, result)
            return results


def _execute_owned(tasks: Sequence[_Task], workers: int, policy: RetryPolicy,
                   journal) -> Tuple[Dict[SimJob, _Outcome], int]:
    """Drive every task until each of its jobs has an outcome; returns
    the outcomes and the number of pool rebuilds.

    The loop submits ready tasks to the pool, waits for completions or
    the nearest deadline, and turns each failure into either a
    scheduled retry (with backoff) or settled errors.  Worker death and
    hung workers both end in a pool rebuild; past the rebuild budget the
    remaining tasks finish serially in this process.  A task's deadline
    is ``policy.timeout`` × its job count — it does the work of that
    many jobs in one pass, so the per-job budget simply accumulates.
    """
    pool = LocalBackend(workers)
    states = {task: _TaskState() for task in tasks}
    waiting: Set[_Task] = set(tasks)
    # Tasks in flight at a pool break that could not be pinned on one.
    suspects: Set[_Task] = set()
    not_before = {task: 0.0 for task in tasks}
    running: Dict[Future, _Task] = {}
    deadlines: Dict[Future, float] = {}
    outcomes: Dict[SimJob, _Outcome] = {}
    rebuilds = 0

    def settle_ok(task: _Task, results: Sequence[SimulationResult]) -> None:
        suspects.discard(task)
        for job, result in zip(task.jobs, results):
            _journal_record(journal, job, result)
            outcomes[job] = result

    def settle_error(task: _Task, error: BaseException) -> None:
        for job in task.jobs:
            outcomes[job] = error

    def schedule_retry(task: _Task, error: BaseException, kind: str,
                       charge: bool = True) -> None:
        """Queue another attempt, or settle the task with ``error``.

        ``charge=False`` is for collateral damage — a task whose worker
        died because a *different* task killed the pool keeps its own
        attempt budget intact.
        """
        state = states[task]
        if charge:
            suspects.discard(task)
            state.attempts += 1
            if state.attempts >= policy.max_attempts:
                telemetry.emit("parallel.exhausted", workload=task.workload,
                               key=task.keys, attempts=state.attempts,
                               error=type(error).__name__)
                settle_error(task, error)
                return
            delay = backoff_delay(state.attempts, policy, key=task.jobs[0])
            telemetry.emit("parallel.retry", workload=task.workload,
                           key=task.keys, attempt=state.attempts,
                           delay=round(delay, 4), error=kind)
            not_before[task] = time.monotonic() + delay
        else:
            telemetry.emit("parallel.worker_lost", workload=task.workload,
                           key=task.keys)
            not_before[task] = 0.0
        waiting.add(task)

    def rebuild_pool(lost: List[Tuple[_Task, BaseException]]) -> None:
        """Requeue every task in flight and rebuild the pool.

        ``lost`` holds the tasks whose futures a broken pool failed.  A
        broken pool fails every future in flight, so the break names its
        culprit only when one task was in flight: that task is charged.
        Otherwise none is, and all of them become suspects.
        """
        nonlocal rebuilds
        cancelled = []
        for future, task in running.items():
            if future.done() and not future.cancelled():
                # Completed between wait() returning and the rebuild:
                # that is a real outcome — settle it rather than
                # cancelling and re-running finished work.
                try:
                    results = future.result()
                except BrokenProcessPool as error:
                    lost.append((task, error))
                except BaseException as error:
                    schedule_retry(task, error, type(error).__name__)
                else:
                    settle_ok(task, results)
                continue
            future.cancel()
            cancelled.append(task)
        if len(lost) == 1 and not cancelled:
            task, error = lost[0]
            schedule_retry(task, error, "worker_lost")
        else:
            collateral = [task for task, _ in lost] + cancelled
            for task in collateral:
                schedule_retry(task, BrokenProcessPool("pool rebuilt"),
                               "worker_lost", charge=False)
            if lost:
                suspects.update(collateral)
        running.clear()
        deadlines.clear()
        rebuilds += 1
        pool.reset(kill=True)
        telemetry.emit("parallel.pool_rebuild", rebuilds=rebuilds,
                       killed=True)

    while (waiting or running) and rebuilds <= policy.max_pool_rebuilds:
        # Dispatch tasks whose backoff has elapsed (original order, so
        # the fault plan's indices stay deterministic), keeping at most
        # one future in flight per pool worker.  The deadline starts at
        # submission, so a task queued behind a full pool would burn its
        # timeout budget waiting for a worker instead of running;
        # bounding in-flight work makes submission ≈ execution start.
        # While suspects remain, they go first and alone, so the next
        # break has one task in flight.
        now = time.monotonic()
        ready = [task for task in tasks
                 if task in waiting and not_before[task] <= now]
        slots = (1 if suspects else workers) - len(running)
        ready.sort(key=lambda task: task not in suspects)
        ready = ready[:max(0, slots)]
        if ready:
            try:
                for task in ready:
                    future = pool.submit(task, states[task].fault.take())
                    waiting.discard(task)
                    running[future] = task
                    if policy.timeout is not None:
                        deadlines[future] = (
                            time.monotonic()
                            + policy.timeout * len(task.jobs))
            except RuntimeError:
                # The pool died before accepting work (BrokenProcessPool,
                # or submit on a shut-down executor); tasks not yet
                # submitted are still in ``waiting``.
                rebuild_pool([])
                continue

        if not running:
            # Everyone is backing off; sleep until the earliest retry.
            pause = (min(not_before[task] for task in waiting)
                     - time.monotonic())
            if pause > 0:
                time.sleep(min(pause, 0.1))
            continue

        # Wait for a completion, but wake for the nearest deadline or
        # the nearest *future* backoff expiry, whichever comes first.
        # A task that is already dispatchable but slot-starved is not a
        # wakeup — only a completion can free its slot, so counting it
        # would just busy-poll wait().
        now = time.monotonic()
        wakeups = [d - now for d in deadlines.values()]
        wakeups += [not_before[task] - now for task in waiting
                    if not_before[task] > now]
        timeout = max(0.01, min(wakeups)) if wakeups else None
        done, _ = wait(list(running), timeout=timeout,
                       return_when=FIRST_COMPLETED)

        lost: List[Tuple[_Task, BaseException]] = []
        for future in done:
            task = running.pop(future)
            deadlines.pop(future, None)
            try:
                results = future.result()
            except BrokenProcessPool as error:
                # Some worker died mid-attempt, and the pool is gone for
                # everyone: rebuild_pool decides whom to charge.
                lost.append((task, error))
            except CancelledError as error:
                schedule_retry(task, error, "cancelled", charge=False)
            except BaseException as error:
                schedule_retry(task, error, type(error).__name__)
            else:
                settle_ok(task, results)
        if lost:
            rebuild_pool(lost)
            continue

        # Enforce deadlines: a hung worker never returns, and the only
        # way to kill one pool worker is to rebuild the whole pool.
        now = time.monotonic()
        expired = [future for future, deadline in deadlines.items()
                   if deadline <= now]
        for future in expired:
            task = running.pop(future)
            deadlines.pop(future)
            telemetry.emit("parallel.timeout", workload=task.workload,
                           key=task.keys, timeout=policy.timeout,
                           attempt=states[task].attempts + 1)
            schedule_retry(task, TimeoutError(
                f"task {task.workload}/{task.keys} exceeded "
                f"{policy.timeout * len(task.jobs)}s"), "timeout")
        if expired:
            rebuild_pool([])

    if waiting or running:
        # Past the rebuild budget: the pool is irrecoverable.
        remaining = [task for task in tasks
                     if task in waiting or task in set(running.values())]
        telemetry.emit("parallel.degraded",
                       remaining=sum(len(t.jobs) for t in remaining),
                       rebuilds=rebuilds)
        running.clear()
        for task in remaining:
            waiting.discard(task)
            try:
                settle_ok(task, _run_serial_attempts(task, states[task],
                                                     policy, journal=None))
            except KeyboardInterrupt:
                raise
            except Exception as error:
                settle_error(task, error)
    return outcomes, rebuilds


def run_jobs(jobs: Sequence[SimJob],
             max_workers: Optional[int] = None,
             policy: Optional[RetryPolicy] = None,
             journal=None) -> Dict[SimJob, SimulationResult]:
    """Run every job, in parallel where possible; returns job -> result.

    Results are identical to calling ``runner.get_result`` for each job
    serially — the parallel path (including every retry, pool rebuild
    and degradation to serial) only changes *where* the simulation runs,
    never what it computes.

    ``policy`` defaults to :meth:`RetryPolicy.from_env` (``REPRO_RETRIES``
    and ``REPRO_JOB_TIMEOUT``).  ``journal``, when given, is a checkpoint
    journal (see :mod:`repro.experiments.journal`): completed jobs are
    recorded as they finish, and a cached result whose digest
    contradicts the journal is treated as corrupt and re-run instead of
    trusted.
    """
    from repro.experiments import runner

    if max_workers is None:
        max_workers = default_jobs()
    if policy is None:
        policy = RetryPolicy.from_env()

    telemetry_on = telemetry.enabled()
    batch_start = time.perf_counter() if telemetry_on else 0.0

    def emit_batch(dispatched: int, workers: int, rebuilds: int = 0) -> None:
        if telemetry_on:
            telemetry.emit(
                "parallel.run_jobs", requested=len(jobs), unique=len(unique),
                cache_hits=len(unique) - dispatched, dispatched=dispatched,
                workers=workers, pool_rebuilds=rebuilds,
                seconds=time.perf_counter() - batch_start)

    unique: List[SimJob] = list(dict.fromkeys(jobs))
    results: Dict[SimJob, SimulationResult] = {}

    # Cache peek: anything already in the memory or disk cache skips the
    # pool entirely (and gets promoted into the memory cache) — unless
    # the journal proves the cached bytes wrong, in which case the entry
    # is dropped and the job re-run.
    pending: List[SimJob] = []
    for job in unique:
        cached = runner.peek_result(job.workload, job.key, job.instructions)
        if cached is not None and journal is not None:
            verdict = journal.matches(
                (job.workload, job.key, job.instructions), cached)
            if verdict is False:
                telemetry.emit("parallel.cache_corrupt",
                               workload=job.workload, key=job.key,
                               instructions=job.instructions)
                runner.drop_result(job.workload, job.key, job.instructions)
                cached = None
        if cached is not None:
            _journal_record(journal, job, cached)
            results[job] = cached
        else:
            pending.append(job)

    if not pending:
        emit_batch(dispatched=0, workers=0)
        return {job: results[job] for job in jobs}

    if max_workers <= 1 or len(pending) == 1:
        # Serial fallback: no pool spin-up for a single miss or -j 1.
        # Grouping still applies — a -j 1 figure run decodes each trace
        # once — _simulate_task emits the per-task telemetry here too
        # (the "worker" is simply this process), and the retry policy
        # still applies.
        for task in _make_tasks(pending):
            outcome = _run_serial_attempts(task, _TaskState(), policy,
                                           journal)
            for job, result in zip(task.jobs, outcome):
                results[job] = result
        emit_batch(dispatched=len(pending), workers=1)
        return {job: results[job] for job in jobs}

    # Every task settles (and journals) before the first failed job's
    # error is raised, so a failure costs the batch no finished work.
    workers = min(max_workers, len(pending))
    outcomes, rebuilds = _execute_owned(_make_tasks(pending), workers,
                                        policy, journal)
    for job in pending:
        outcome = outcomes[job]
        if isinstance(outcome, BaseException):
            raise outcome
        # Seed the parent's memory cache: the worker wrote the disk
        # cache, but this process should not have to re-read it.
        runner.seed_result(job.workload, job.key, job.instructions, outcome)
        results[job] = outcome

    emit_batch(dispatched=len(pending), workers=workers, rebuilds=rebuilds)
    return {job: results[job] for job in jobs}
