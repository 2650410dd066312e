"""Child-per-attempt scheduler for simulation jobs, with fault tolerance.

The unit of *accounting* is a :class:`SimJob` — one (workload,
instructions, predictor-key) triple, exactly the granularity of the
on-disk result cache.  :func:`run_jobs` takes any number of jobs and:

1. deduplicates them (figures share baselines like ``tsl64``);
2. answers what it can from the in-memory and on-disk caches without
   starting a child, checking each cached result against the checkpoint
   journal (:mod:`repro.experiments.journal`) and re-running anything it
   proves corrupt;
3. groups the rest into :class:`_Task` units — jobs sharing a
   (workload, instructions) pair, which therefore decode the *same*
   trace — and runs each task attempt in a child process of its own,
   started by :class:`~repro.parallel.backend.local.LocalBackend`, at
   most ``max_workers`` at a time.  With one worker (``-j 1``, or a
   single uncached job) every attempt runs in this process instead.
   Either way an attempt is one ``runner.run_batch`` call: one decode
   pass updates every predictor in the group, bit-identical to running
   them separately, and results land in the shared disk cache
   atomically;
4. records every result it serves or settles in the journal, and seeds
   the parent's in-memory cache with it, so subsequent serial code
   (``get_result``) never re-simulates.

Every call opens the journal itself and closes it before it returns,
and only this process writes it: children never touch it.

Failures do not abort the batch.  Each task runs under a
:class:`~repro.parallel.retry.RetryPolicy`, and one loop,
:func:`_execute_owned`, starts, charges, retries and settles every
attempt, wherever it runs.  Attempts share no process, so every failure
belongs to exactly one task: an attempt that raises, a child that dies
mid-attempt (OOM-kill, segfault) and an attempt that misses its deadline
(``policy.timeout`` × the task's job count; only that task's child is
killed) each charge their task one attempt, and the task is retried with
bounded, jittered exponential backoff.  A deadline cannot interrupt an
attempt that runs in this process.  A retried task recovers
incrementally: members whose results were already published to the disk
cache answer from it, so only the unfinished remainder re-simulates.  If
no child can be started at all, the running children are killed
(uncharged) and the remaining attempts run in this process.  Only a task
that exhausts ``max_attempts`` raises to the caller, after every other
task has settled and been journalled; no child outlives the call.

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
    """Run one task attempt: one ``runner.run_batch`` over its jobs.

    A child looks it up by name when it starts; :class:`_InProcess`
    calls it with ``in_worker=False``.  A child inherits
    ``REPRO_TELEMETRY`` with the rest of the environment and writes its
    events to its own per-pid JSONL file, which is what makes per-task
    wall time and worker utilization reportable after the run.

    Members already in the disk cache (e.g. from an interrupted earlier
    attempt) are answered from it rather than re-simulated, and a
    one-job task caches exactly what ``runner.get_result`` would.

    ``fault`` is this attempt's share of the chaos plan, decided by the
    parent (see :mod:`repro.parallel.faults`); it fires before any work
    or cache write, so a faulted attempt leaves no partial state.
    """
    from repro.experiments import runner

    faults.apply(fault, task, in_worker)
    timed = telemetry.enabled()
    start = time.perf_counter() if timed else 0.0
    results = runner.run_batch(task.workload, [job.key for job in task.jobs],
                               task.instructions)
    if timed:
        event = dict(workload=task.workload, key=task.keys,
                     instructions=task.instructions,
                     seconds=time.perf_counter() - start)
        if len(task.jobs) > 1:
            event["batched"] = len(task.jobs)
        telemetry.emit("parallel.job", **event)
    return results


class _InProcess:
    """Runs task attempts in this process, in :class:`LocalBackend`'s shape.

    :meth:`submit` runs the attempt at once and returns its settled
    future, which the next :meth:`wait` hands back.  Nothing runs
    between calls, so :meth:`reset` has no child to kill.
    """

    def __init__(self) -> None:
        self._settled: List[Future] = []

    def submit(self, task: _Task, fault: Optional[str]) -> Future:
        future: Future = Future()
        try:
            future.set_result(_simulate_task(task, fault, in_worker=False))
        except Exception as error:
            future.set_exception(error)
        self._settled.append(future)
        return future

    def wait(self, timeout: Optional[float]) -> List[Future]:
        settled, self._settled = self._settled, []
        return settled

    def reset(self, futures: Optional[Iterable[Future]] = None) -> None:
        pass


#: What a batch settles each job to: its result, or the error that
#: exhausted its task's retries.
_Outcome = Union[SimulationResult, BaseException]


class _TaskState:
    """Per-task retry bookkeeping for one batch."""

    __slots__ = ("attempts", "fault")

    def __init__(self) -> None:
        self.attempts = 0
        self.fault = faults.assign_next()


def _execute_owned(tasks: Sequence[_Task], workers: int, policy: RetryPolicy,
                   journal) -> Dict[SimJob, _Outcome]:
    """Drive every task until each of its jobs has an outcome.

    The one place a task attempt is started, charged, retried and
    settled.  The loop starts each ready task attempt, keeping at most
    ``workers`` running — each in a child of its own, or in this process
    when ``workers`` is 1 — waits for an attempt to report or its child
    to die or for the nearest deadline, and turns each failure into
    either a scheduled retry (with backoff) or settled errors.  A task's
    deadline is ``policy.timeout`` × its job count — it does the work of
    that many jobs in one pass, so the per-job budget simply
    accumulates.  If no child can be started, the running children are
    killed uncharged and every attempt from then on runs in this
    process, each task keeping its attempt count.
    """
    backend = LocalBackend(workers) if workers > 1 else _InProcess()
    states = {task: _TaskState() for task in tasks}
    waiting: Set[_Task] = set(tasks)
    not_before = {task: 0.0 for task in tasks}
    running: Dict[Future, _Task] = {}
    deadlines: Dict[Future, float] = {}
    outcomes: Dict[SimJob, _Outcome] = {}

    def settle_ok(task: _Task, results: Sequence[SimulationResult]) -> None:
        for job, result in zip(task.jobs, results):
            journal.record_result(job, result)
            outcomes[job] = result

    def schedule_retry(task: _Task, error: BaseException, kind: str) -> None:
        """Charge ``task`` one attempt: queue the next, or settle the
        task with ``error`` once its attempts are spent."""
        state = states[task]
        state.attempts += 1
        if state.attempts >= policy.max_attempts:
            telemetry.emit("parallel.exhausted", workload=task.workload,
                           key=task.keys, attempts=state.attempts,
                           error=type(error).__name__)
            for job in task.jobs:
                outcomes[job] = error
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
            # attempt per worker, so a task's deadline starts when it does.
            now = time.monotonic()
            ready = [task for task in tasks
                     if task in waiting and not_before[task] <= now]
            for task in ready[:workers - len(running)]:
                fault = states[task].fault.take()
                try:
                    future = backend.submit(task, fault)
                except OSError as error:
                    # No child can be started: the running ones are not
                    # to blame, so kill them uncharged and go on here.
                    backend.reset()
                    waiting.update(running.values())
                    running.clear()
                    deadlines.clear()
                    telemetry.emit("parallel.degraded",
                                   remaining=sum(len(queued.jobs)
                                                 for queued in waiting),
                                   error=str(error))
                    backend = _InProcess()
                    future = backend.submit(task, fault)
                waiting.discard(task)
                running[future] = task
                if policy.timeout is not None:
                    deadlines[future] = (time.monotonic()
                                         + policy.timeout * len(task.jobs))

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
            # An error or an interrupt left children mid-attempt.
            backend.reset()
    return outcomes


def run_jobs(jobs: Sequence[SimJob],
             max_workers: Optional[int] = None,
             policy: Optional[RetryPolicy] = None) -> Dict[SimJob, SimulationResult]:
    """Run every job, in parallel where possible; returns job -> result.

    Results are identical to calling ``runner.get_result`` for each job
    serially — where an attempt runs (a child, or this process for one
    worker) and how often it is retried never change what it computes.

    ``policy`` defaults to :meth:`RetryPolicy.from_env` (``REPRO_RETRIES``
    and ``REPRO_JOB_TIMEOUT``).  Every call checks and records against
    the checkpoint journal (see :mod:`repro.experiments.journal`): a
    cached result whose digest contradicts it is treated as corrupt and
    re-run instead of trusted, and every job's result is recorded.  Each
    cached result is digested once, for both the check and the record.
    """
    from repro.experiments import runner
    from repro.experiments.journal import RunJournal, result_digest

    if max_workers is None:
        max_workers = default_jobs()
    if policy is None:
        policy = RetryPolicy.from_env()

    telemetry_on = telemetry.enabled()
    batch_start = time.perf_counter() if telemetry_on else 0.0
    unique: List[SimJob] = list(dict.fromkeys(jobs))
    results: Dict[SimJob, SimulationResult] = {}

    with RunJournal.open() as journal:
        # Cache peek: anything already in the memory or disk cache starts
        # no attempt (and gets promoted into the memory cache) — unless
        # the journal proves the cached bytes wrong, in which case the
        # entry is dropped and the job re-run.
        pending: List[SimJob] = []
        for job in unique:
            cached = runner.peek_result(job.workload, job.key,
                                        job.instructions)
            if cached is not None:
                digest = result_digest(cached)
                if journal.matches(job, digest) is False:
                    telemetry.emit("parallel.cache_corrupt",
                                   workload=job.workload, key=job.key,
                                   instructions=job.instructions)
                    runner.drop_result(job.workload, job.key,
                                       job.instructions)
                    cached = None
                else:
                    journal.record(job, digest)
            if cached is not None:
                results[job] = cached
            else:
                pending.append(job)

        workers = 0
        if pending:
            workers = max(1, min(max_workers, len(pending)))
            # Every task settles (and journals) before the first failed
            # job's error is raised, so a failure costs the batch no
            # finished work.
            outcomes = _execute_owned(_make_tasks(pending), workers, policy,
                                      journal)
            for job in pending:
                outcome = outcomes[job]
                if isinstance(outcome, BaseException):
                    raise outcome
                # Seed the parent's memory cache: a child wrote the disk
                # cache, but this process should not have to re-read it.
                runner.seed_result(job.workload, job.key, job.instructions,
                                   outcome)
                results[job] = outcome

    if telemetry_on:
        telemetry.emit(
            "parallel.run_jobs", requested=len(jobs), unique=len(unique),
            cache_hits=len(unique) - len(pending), dispatched=len(pending),
            workers=workers, seconds=time.perf_counter() - batch_start)
    return {job: results[job] for job in jobs}
