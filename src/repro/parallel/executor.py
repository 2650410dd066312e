"""Child-per-attempt scheduler for simulation jobs, with fault tolerance.

The unit of *accounting* is a :class:`SimJob` — one (workload,
instructions, predictor-key) triple, exactly the granularity of the
on-disk result cache.  :func:`run_jobs` takes any number of jobs and:

1. deduplicates them (figures share baselines like ``tsl64``);
2. answers what it can from the in-memory and on-disk caches without
   starting a child (re-running anything a checkpoint journal proves
   corrupt);
3. groups the rest into :class:`_Task` units — jobs sharing a
   (workload, instructions) pair, which therefore decode the *same*
   trace — and runs each task attempt in a child process of its own,
   started by :class:`~repro.parallel.backend.local.LocalBackend`, at
   most ``max_workers`` at a time.  A child runs the batched cached
   runner (``runner.run_batch``: one decode pass updates every
   predictor in the group, bit-identical to running them separately;
   results land in the shared disk cache atomically);
4. seeds the parent's in-memory cache with every result, so subsequent
   serial code (``get_result``) never re-simulates.

Failures do not abort the batch.  Each task runs under a
:class:`~repro.parallel.retry.RetryPolicy`.  Attempts share no
process, so every failure belongs to exactly one task: an attempt that
raises, a child that dies mid-attempt (OOM-kill, segfault) and an
attempt that misses its deadline (``policy.timeout`` × the task's job
count; only that task's child is killed) each charge their task one
attempt, and the task is retried with bounded, jittered exponential
backoff.  A retried task recovers incrementally: members whose results
were already published to the disk cache answer from it, so only the
unfinished remainder re-simulates.  If no child can be started at all,
the remaining tasks finish serially in this process.  Only a task that
exhausts ``max_attempts`` raises to the caller, after every other task
has settled; no child outlives the call.

Every failure path is exercisable deterministically through
:mod:`repro.parallel.faults` (``REPRO_FAULTS``), and each recovery
emits a telemetry event (``parallel.retry`` / ``.timeout`` /
``.exhausted`` / ``.degraded``) so ``scripts/report.py`` can account
for a bumpy run.

A child is forked from the caller when its attempt starts, so it sees
the caller's environment (the ``REPRO_*`` knobs) as it is then, which
is what keeps parallel results bit-identical to serial runs: the same
trace generation, the same predictor construction, the same engine —
retries re-run the same pure computation, so a recovered batch equals a
clean one.
"""

from __future__ import annotations

import os
import time
import warnings
from concurrent.futures import Future
from typing import Dict, Iterable, List, NamedTuple, Optional, Sequence, Set, Tuple, Union

from repro import telemetry
from repro.parallel import faults
from repro.parallel.backend.local import LocalBackend, WorkerLost
from repro.parallel.retry import RetryPolicy, backoff_delay
from repro.sim.results import SimulationResult


class SimJob(NamedTuple):
    """One simulation: a workload/instruction-budget/predictor triple."""

    workload: str
    key: str
    instructions: int


class _Task(NamedTuple):
    """The dispatch unit: jobs sharing one (workload, instructions) pair.

    All members simulate the same trace, so a child loads it once and
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
    """Child entry point: run the cached runner for one task attempt.

    The backend looks it up by name when a child starts.  A child
    inherits ``REPRO_TELEMETRY`` with the rest of the environment and
    writes its events to its own per-pid JSONL file, which is what makes
    per-task wall time and worker utilization reportable after the run.

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


#: What a batch settles each job to: its result, or the error that
#: exhausted its task's retries.
_Outcome = Union[SimulationResult, BaseException]


class _TaskState:
    """Per-task retry bookkeeping for one batch."""

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
                   journal) -> Dict[SimJob, _Outcome]:
    """Drive every task until each of its jobs has an outcome.

    The loop starts a child for each ready task attempt, keeping at most
    ``workers`` running, waits for a child to report or die or for the
    nearest deadline, and turns each failure into either a scheduled
    retry (with backoff) or settled errors.  A task's deadline is
    ``policy.timeout`` × its job count — it does the work of that many
    jobs in one pass, so the per-job budget simply accumulates.  If no
    child can be started, the remaining tasks finish in this process.
    """
    backend = LocalBackend(workers)
    states = {task: _TaskState() for task in tasks}
    waiting: Set[_Task] = set(tasks)
    not_before = {task: 0.0 for task in tasks}
    running: Dict[Future, _Task] = {}
    deadlines: Dict[Future, float] = {}
    outcomes: Dict[SimJob, _Outcome] = {}
    unstartable: Optional[OSError] = None

    def settle_ok(task: _Task, results: Sequence[SimulationResult]) -> None:
        for job, result in zip(task.jobs, results):
            _journal_record(journal, job, result)
            outcomes[job] = result

    def settle_error(task: _Task, error: BaseException) -> None:
        for job in task.jobs:
            outcomes[job] = error

    def schedule_retry(task: _Task, error: BaseException, kind: str) -> None:
        """Charge ``task`` one attempt: queue the next, or settle the
        task with ``error`` once its attempts are spent."""
        state = states[task]
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
        waiting.add(task)

    try:
        while waiting or running:
            # Start tasks whose backoff has elapsed (original order, so
            # the fault plan's indices stay deterministic), at most one
            # child per worker, so a task's deadline starts when it does.
            now = time.monotonic()
            ready = [task for task in tasks
                     if task in waiting and not_before[task] <= now]
            for task in ready[:workers - len(running)]:
                try:
                    future = backend.submit(task, states[task].fault.take())
                except OSError as error:
                    unstartable = error
                    break
                waiting.discard(task)
                running[future] = task
                if policy.timeout is not None:
                    deadlines[future] = (time.monotonic()
                                         + policy.timeout * len(task.jobs))
            if unstartable is not None:
                break

            if not running:
                # Everyone is backing off; sleep until the earliest retry.
                time.sleep(max(0.0, min(not_before[task] for task in waiting)
                               - time.monotonic()))
                continue

            # Wait for a child, but wake for the nearest deadline or the
            # nearest *future* backoff expiry, whichever comes first.  A
            # task that is already startable but slot-starved is not a
            # wakeup — only a settled child can free its slot.
            now = time.monotonic()
            wakeups = [deadline - now for deadline in deadlines.values()]
            wakeups += [not_before[task] - now for task in waiting
                        if not_before[task] > now]
            timeout = max(0.01, min(wakeups)) if wakeups else None
            for future in backend.wait(timeout):
                task = running.pop(future)
                deadlines.pop(future, None)
                try:
                    results = future.result()
                except WorkerLost as error:
                    schedule_retry(task, error, "worker_lost")
                except Exception as error:
                    schedule_retry(task, error, type(error).__name__)
                else:
                    settle_ok(task, results)

            # A hung attempt never reports: kill its child alone.
            now = time.monotonic()
            expired = [future for future, deadline in deadlines.items()
                       if deadline <= now]
            if expired:
                backend.reset(expired)
            for future in expired:
                task = running.pop(future)
                deadlines.pop(future)
                telemetry.emit("parallel.timeout", workload=task.workload,
                               key=task.keys, timeout=policy.timeout,
                               attempt=states[task].attempts + 1)
                schedule_retry(task, TimeoutError(
                    f"task {task.workload}/{task.keys} exceeded "
                    f"{policy.timeout * len(task.jobs)}s"), "timeout")
    finally:
        if running:
            # An error, an interrupt or an unstartable child left
            # children mid-attempt; their tasks are not to blame.
            backend.reset()
            waiting.update(running.values())
            running.clear()

    if waiting:
        # No child could be started: finish the rest in this process.
        remaining = [task for task in tasks if task in waiting]
        telemetry.emit("parallel.degraded",
                       remaining=sum(len(task.jobs) for task in remaining),
                       error=str(unstartable))
        for task in remaining:
            try:
                settle_ok(task, _run_serial_attempts(task, states[task],
                                                     policy, journal=None))
            except KeyboardInterrupt:
                raise
            except Exception as error:
                settle_error(task, error)
    return outcomes


def run_jobs(jobs: Sequence[SimJob],
             max_workers: Optional[int] = None,
             policy: Optional[RetryPolicy] = None,
             journal=None) -> Dict[SimJob, SimulationResult]:
    """Run every job, in parallel where possible; returns job -> result.

    Results are identical to calling ``runner.get_result`` for each job
    serially — the parallel path (including every retry and degradation
    to serial) only changes *where* the simulation runs, never what it
    computes.

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

    def emit_batch(dispatched: int, workers: int) -> None:
        if telemetry_on:
            telemetry.emit(
                "parallel.run_jobs", requested=len(jobs), unique=len(unique),
                cache_hits=len(unique) - dispatched, dispatched=dispatched,
                workers=workers, seconds=time.perf_counter() - batch_start)

    unique: List[SimJob] = list(dict.fromkeys(jobs))
    results: Dict[SimJob, SimulationResult] = {}

    # Cache peek: anything already in the memory or disk cache starts no
    # child (and gets promoted into the memory cache) — unless
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
        # In-process: no child for a single miss or -j 1.
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
    outcomes = _execute_owned(_make_tasks(pending), workers, policy, journal)
    for job in pending:
        outcome = outcomes[job]
        if isinstance(outcome, BaseException):
            raise outcome
        # Seed the parent's memory cache: the child wrote the disk
        # cache, but this process should not have to re-read it.
        runner.seed_result(job.workload, job.key, job.instructions, outcome)
        results[job] = outcome

    emit_batch(dispatched=len(pending), workers=workers)
    return {job: results[job] for job in jobs}
