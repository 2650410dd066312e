"""Process-pool scheduler for simulation jobs, with fault tolerance.

The unit of *accounting* is a :class:`SimJob` — one (workload,
instructions, predictor-key) triple, exactly the granularity of the
on-disk result cache.  :func:`run_jobs` takes any number of jobs and:

1. deduplicates them (figures share baselines like ``tsl64``);
2. answers what it can from the in-memory and on-disk caches without
   touching the pool (re-running anything a checkpoint journal proves
   corrupt);
3. coalesces jobs already in flight from an earlier call instead of
   dispatching them twice;
4. groups the rest into :class:`_Task` units — jobs sharing a
   (workload, instructions) pair, which therefore decode the *same*
   trace — and fans the tasks across a process pool, where each worker
   runs the batched cached runner (``runner.run_batch``: one decode
   pass updates every predictor in the group, bit-identical to running
   them separately; results land in the shared disk cache atomically);
5. seeds the parent's in-memory cache with every result, so subsequent
   serial code (``get_result``) never re-simulates.

``REPRO_BATCH=0`` disables the grouping, making every task a single
job (the pre-batching behaviour, and the granularity the fault plan's
indices historically referred to).

Tasks execute through a pluggable *backend*
(:mod:`repro.parallel.backend`): the default ``LocalBackend`` is the
process pool described below, byte-identical to the pre-backend
executor; ``TCPBackend`` shards the same tasks across
``python -m repro.worker`` processes on any host.  Selection is via
``run_jobs(..., backend=)``, ``REPRO_BACKEND``, or the CLI
``--backend`` / ``--workers`` flags.

Failures do not abort the batch.  Each task runs under a
:class:`~repro.parallel.retry.RetryPolicy`: an attempt that raises is
retried with bounded, jittered exponential backoff; an attempt that
exceeds its timeout (``policy.timeout`` × the task's job count) has its
(hung) worker killed — the local pool is rebuilt, a TCP worker's
connection is surgically severed; a worker that dies mid-task
(OOM-kill, segfault, dead connection) strands its tasks, which are
retried without burning their own attempt budget (a task that keeps
*being held* by dying workers is eventually charged, so a poison task
cannot loop forever).  A retried task recovers incrementally: members
whose results were already published to the disk cache answer from it,
so only the unfinished remainder re-simulates.  A remote backend whose
last worker is gone (past a ``REPRO_BACKEND_GRACE`` rejoin window)
degrades to the local pool; if the local pool proves irrecoverable —
more rebuilds than ``policy.max_pool_rebuilds`` — the batch degrades to
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
import threading
import time
import warnings
from concurrent.futures import FIRST_COMPLETED, CancelledError, Future, wait
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from typing import Dict, Iterable, List, NamedTuple, Optional, Sequence, Set, Tuple

from repro import telemetry
from repro.parallel import backend as backend_mod
from repro.parallel import faults
from repro.parallel.backend import Backend, BackendBroken, WorkerLost
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
    count — while journal records and result tickets stay per member.
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


def batching_enabled() -> bool:
    """True unless ``REPRO_BATCH=0`` opts out of shared-trace batching."""
    return os.environ.get("REPRO_BATCH", "1") != "0"


def _make_tasks(jobs: Sequence[SimJob]) -> List[_Task]:
    """Group jobs into tasks, preserving first-occurrence order.

    With batching disabled every job is its own task, which reproduces
    the historical one-future-per-job dispatch exactly (fault-plan
    indices included).
    """
    if not batching_enabled():
        return [_Task((job,)) for job in jobs]
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


class _Ticket:
    """A job's promised outcome, shared between submitter and coalescers.

    Unlike a pool ``Future``, a ticket survives retries and pool
    rebuilds: the owning caller may burn through several futures (and
    pools) before publishing the final result or error here, and every
    caller waiting on the same job observes only that final outcome.
    """

    __slots__ = ("_event", "_result", "_error")

    def __init__(self) -> None:
        self._event = threading.Event()
        self._result: Optional[SimulationResult] = None
        self._error: Optional[BaseException] = None

    @property
    def settled(self) -> bool:
        return self._event.is_set()

    def resolve(self, result: SimulationResult) -> None:
        self._result = result
        self._event.set()

    def fail(self, error: BaseException) -> None:
        self._error = error
        self._event.set()

    def wait(self) -> SimulationResult:
        self._event.wait()
        if self._error is not None:
            raise self._error
        assert self._result is not None
        return self._result


# One pool per process, plus the jobs currently submitted to it.  The
# lock guards all of it; tickets stay registered until consumed so
# concurrent run_jobs calls (e.g. threaded test sessions) coalesce
# duplicates, and ``_pool_futures`` tracks the futures outstanding on
# the *current* pool so _get_pool knows when a resize is safe.
_lock = threading.Lock()
_pool: Optional[ProcessPoolExecutor] = None
_pool_workers = 0
_pool_futures: Set[Future] = set()
_inflight: Dict[SimJob, _Ticket] = {}


def _get_pool(workers: int) -> ProcessPoolExecutor:
    global _pool, _pool_workers
    if _pool is None or _pool_workers < workers:
        # An undersized pool can be replaced only while no futures are
        # outstanding on it.  Registered tickets alone must not pin it:
        # run_jobs registers the batch's tickets before execution ever
        # reaches here, so gating on _inflight would mean a first small
        # batch pins the pool at its size for the whole process.
        if _pool is not None and not _pool_futures:
            _pool.shutdown(wait=True)
            _pool = None
        if _pool is None:
            _pool = ProcessPoolExecutor(max_workers=workers)
            _pool_workers = workers
    return _pool


def _discard_pool(kill: bool = False) -> None:
    """Drop the current pool; with ``kill``, SIGKILL its workers first.

    Killing is for hung workers: ``shutdown`` would politely wait for a
    worker that will never answer, so the recovery path terminates the
    processes outright and builds a fresh pool.  Callers hold ``_lock``.
    """
    global _pool, _pool_workers
    pool, _pool, _pool_workers = _pool, None, 0
    _pool_futures.clear()
    if pool is None:
        return
    if kill:
        for proc in list(getattr(pool, "_processes", {}).values()):
            try:
                proc.kill()
            except Exception:
                pass
    pool.shutdown(wait=False)


def shutdown() -> None:
    """Tear down the worker pool (tests; end of a CLI run)."""
    with _lock:
        tickets = list(_inflight.values())
        _inflight.clear()
        _discard_pool()
    for ticket in tickets:
        if not ticket.settled:
            ticket.fail(CancelledError("parallel.shutdown()"))


class _TaskState:
    """Per-task retry bookkeeping for one owned batch.

    ``losses`` counts how often this task's worker died under it.
    Losses are normally free (collateral damage must not burn the
    victim's attempts), but a task that *keeps* killing its workers is
    indistinguishable from a poison task — past
    ``policy.max_pool_rebuilds`` losses it starts being charged, so it
    cannot reschedule forever.
    """

    __slots__ = ("attempts", "fault", "losses")

    def __init__(self) -> None:
        self.attempts = 0
        self.losses = 0
        self.fault = faults.assign_next()


def _error_kind(error: BaseException) -> str:
    """Telemetry label for an error: the remote original where known."""
    return getattr(error, "kind", None) or type(error).__name__


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


def _execute_owned(tasks: Sequence[_Task], tickets: Dict[SimJob, _Ticket],
                   workers: int, policy: RetryPolicy, journal,
                   backend: Optional[Backend] = None) -> int:
    """Drive every owned task to settled tickets; returns pool rebuilds.

    The loop dispatches ready tasks to the backend, waits for
    completions or the nearest deadline, and turns each failure into
    either a scheduled retry (with backoff) or settled errors.  Worker
    death and hung workers both end in a recovery — a local pool
    rebuild, or a surgical connection eviction on a remote backend;
    past the rebuild budget the remaining tasks finish serially in this
    process, and a remote backend with no workers left (after its
    rejoin grace) degrades to the local pool first.  A task's deadline
    is ``policy.timeout`` × its job count — it does the work of that
    many jobs in one pass, so the per-job budget simply accumulates.
    """
    from repro.parallel.backend.local import LocalBackend

    if backend is None:
        backend = LocalBackend(workers)
    states = {task: _TaskState() for task in tasks}
    waiting: Set[_Task] = set(tasks)
    not_before = {task: 0.0 for task in tasks}
    running: Dict[Future, _Task] = {}
    deadlines: Dict[Future, float] = {}
    rebuilds = 0
    degraded = False

    def settle_ok(task: _Task, results: Sequence[SimulationResult]) -> None:
        for job, result in zip(task.jobs, results):
            _journal_record(journal, job, result)
            tickets[job].resolve(result)

    def settle_error(task: _Task, error: BaseException) -> None:
        for job in task.jobs:
            tickets[job].fail(error)

    def schedule_retry(task: _Task, error: BaseException, kind: str,
                       charge: bool = True) -> None:
        """Queue another attempt, or settle the tickets with ``error``.

        ``charge=False`` is for collateral damage — a task whose worker
        died because a *different* task killed the pool keeps its own
        attempt budget intact.
        """
        state = states[task]
        if charge:
            state.attempts += 1
            if state.attempts >= policy.max_attempts:
                telemetry.emit("parallel.exhausted", workload=task.workload,
                               key=task.keys, attempts=state.attempts,
                               error=_error_kind(error))
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

    def charge_loss(task: _Task) -> bool:
        """Whether this worker loss burns one of ``task``'s attempts."""
        state = states[task]
        state.losses += 1
        return state.losses > policy.max_pool_rebuilds

    def rebuild_pool(kill: bool) -> None:
        nonlocal rebuilds, degraded
        for future, task in running.items():
            if future.done() and not future.cancelled():
                # Completed between wait() returning and the rebuild:
                # that is a real outcome — settle it rather than
                # cancelling and re-running finished work.
                try:
                    results = future.result()
                except BrokenProcessPool as error:
                    schedule_retry(task, error, "worker_lost")
                except WorkerLost as error:
                    schedule_retry(task, error, "worker_lost",
                                   charge=charge_loss(task))
                except BaseException as error:
                    schedule_retry(task, error, _error_kind(error))
                else:
                    settle_ok(task, results)
                continue
            backend.cancel(future)
            schedule_retry(task, BrokenProcessPool("pool rebuilt"),
                           "worker_lost", charge=False)
        running.clear()
        deadlines.clear()
        rebuilds += 1
        backend.reset(kill=kill)
        telemetry.emit("parallel.pool_rebuild", rebuilds=rebuilds,
                       killed=kill)
        if rebuilds > policy.max_pool_rebuilds:
            degraded = True

    def degrade_to_local(reason: str) -> None:
        """Swap a dead remote backend for the local pool, mid-batch.

        In-flight submissions are collateral damage (their workers are
        gone or unreachable), so they reschedule without being charged;
        the replaced backend is closed hard — ``run_jobs`` closing it
        again later is a harmless no-op.
        """
        nonlocal backend
        for future, task in list(running.items()):
            backend.cancel(future)
            schedule_retry(task, WorkerLost(reason), "worker_lost",
                           charge=False)
        running.clear()
        deadlines.clear()
        telemetry.emit("backend.degraded", backend=backend.name, to="local",
                       reason=reason,
                       remaining=sum(len(t.jobs) for t in waiting))
        warnings.warn(f"{backend.name} backend degraded to local: {reason}",
                      RuntimeWarning, stacklevel=3)
        try:
            backend.close(kill=True)
        except Exception:
            pass
        backend = LocalBackend(workers)

    remote = backend.name != "local"
    while waiting or running:
        if degraded:
            break

        # A remote backend with nobody to run on cannot make progress:
        # give departed workers one ``grace`` window to (re)join, then
        # fall back to the local pool rather than stalling the batch.
        if remote and backend.workers() == 0:
            if not backend.wait_for_workers(1, timeout=backend.grace):
                degrade_to_local(
                    f"no workers for {backend.grace:.1f}s")
                remote = False
            continue

        # Dispatch tasks whose backoff has elapsed (original order, so
        # the fault plan's indices stay deterministic), keeping at most
        # one future in flight per backend worker.  The deadline starts
        # at submission, so a task queued behind a full pool would burn
        # its timeout budget waiting for a worker instead of running;
        # bounding in-flight work makes submission ≈ execution start.
        now = time.monotonic()
        slots = backend.workers() - len(running)
        ready = [task for task in tasks
                 if task in waiting and not_before[task] <= now]
        ready = ready[:max(0, slots)]
        if ready:
            try:
                for task in ready:
                    future = backend.submit(task,
                                            states[task].fault.take())
                    waiting.discard(task)
                    running[future] = task
                    if policy.timeout is not None:
                        deadlines[future] = (
                            time.monotonic()
                            + policy.timeout * len(task.jobs))
            except (BrokenProcessPool, BackendBroken, RuntimeError):
                # The pool died before accepting work (submit on a
                # broken/shut-down executor); tasks not yet submitted
                # are still in ``waiting``.
                rebuild_pool(kill=True)
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
        # would just busy-poll wait().  On a remote backend the wait is
        # additionally capped so the loop re-checks worker liveness: a
        # queued submission's future settles only when a worker pulls
        # it, so if every worker died while idle nothing would ever
        # complete and an uncapped wait would block forever.
        now = time.monotonic()
        wakeups = [d - now for d in deadlines.values()]
        wakeups += [not_before[task] - now for task in waiting
                    if not_before[task] > now]
        timeout = max(0.01, min(wakeups)) if wakeups else None
        if remote:
            timeout = 0.25 if timeout is None else min(timeout, 0.25)
        done, _ = wait(list(running), timeout=timeout,
                       return_when=FIRST_COMPLETED)
        if done:
            backend.reap(done)

        broken = False
        for future in done:
            task = running.pop(future)
            deadlines.pop(future, None)
            try:
                results = future.result()
            except BrokenProcessPool as error:
                # This task's worker died mid-attempt: that *is* this
                # task's failure, so it burns an attempt — but the pool
                # is gone for everyone, handled below.
                broken = True
                schedule_retry(task, error, "worker_lost")
            except WorkerLost as error:
                # A dead connection strands only its own task; other
                # workers keep running, so no pool-wide recovery — the
                # task reschedules for free (until it looks poisonous).
                schedule_retry(task, error, "worker_lost",
                               charge=charge_loss(task))
            except CancelledError as error:
                schedule_retry(task, error, "cancelled", charge=False)
            except BaseException as error:
                schedule_retry(task, error, _error_kind(error))
            else:
                settle_ok(task, results)
        if broken:
            rebuild_pool(kill=True)
            continue

        # Enforce deadlines: a hung worker never returns.  A remote
        # backend evicts surgically — severing just that worker's
        # connection — while the local pool can only be killed and
        # rebuilt wholesale.
        now = time.monotonic()
        expired = [future for future, deadline in deadlines.items()
                   if deadline <= now]
        if expired:
            surgical = True
            for future in expired:
                task = running.pop(future)
                deadlines.pop(future)
                telemetry.emit("parallel.timeout", workload=task.workload,
                               key=task.keys, timeout=policy.timeout,
                               attempt=states[task].attempts + 1)
                schedule_retry(task, TimeoutError(
                    f"task {task.workload}/{task.keys} exceeded "
                    f"{policy.timeout * len(task.jobs)}s"), "timeout")
                surgical = backend.evict(future) and surgical
            if not surgical:
                rebuild_pool(kill=True)

    if degraded and (waiting or running):
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
    return rebuilds


def run_jobs(jobs: Sequence[SimJob],
             max_workers: Optional[int] = None,
             policy: Optional[RetryPolicy] = None,
             journal=None,
             backend=None) -> Dict[SimJob, SimulationResult]:
    """Run every job, in parallel where possible; returns job -> result.

    Results are identical to calling ``runner.get_result`` for each job
    serially — the parallel path (including every retry, pool rebuild
    and degradation to serial) only changes *where* the simulation runs,
    never what it computes.

    ``policy`` defaults to :meth:`RetryPolicy.from_env` (``REPRO_RETRIES``
    and friends).  ``journal``, when given, is a checkpoint journal (see
    :mod:`repro.experiments.journal`): completed jobs are recorded as
    they finish, and a cached result whose digest contradicts the
    journal is treated as corrupt and re-run instead of trusted.

    ``backend`` selects where tasks execute: a name (``"local"`` /
    ``"tcp"``), a ready :class:`~repro.parallel.backend.Backend`
    instance (caller-owned — it is not closed here), or ``None`` to
    consult ``REPRO_BACKEND`` (default local).  An unknown or
    unstartable backend warns and falls back to local rather than
    failing the batch, like every other malformed ``REPRO_*`` knob.
    """
    from repro.experiments import runner

    if max_workers is None:
        max_workers = default_jobs()
    if policy is None:
        policy = RetryPolicy.from_env()

    backend_obj = backend if isinstance(backend, Backend) else None
    if backend_obj is not None:
        backend_name = backend_obj.name
    elif isinstance(backend, str):
        backend_name = backend.strip() or "local"
    else:
        backend_name = (os.environ.get(backend_mod.ENV_BACKEND, "local")
                        .strip() or "local")
    resolved_local = backend_obj is None and backend_name == "local"

    telemetry_on = telemetry.enabled()
    batch_start = time.perf_counter() if telemetry_on else 0.0

    def emit_batch(pending: int, dispatched: int, workers: int,
                   rebuilds: int = 0) -> None:
        if telemetry_on:
            telemetry.emit(
                "parallel.run_jobs", requested=len(jobs), unique=len(unique),
                cache_hits=len(unique) - pending,
                coalesced=pending - dispatched, dispatched=dispatched,
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
        emit_batch(pending=0, dispatched=0, workers=0)
        return {job: results[job] for job in jobs}

    if (resolved_local and max_workers <= 1) or len(pending) == 1:
        # Serial fallback: no pool spin-up for a single miss or -j 1.
        # A remote backend ignores -j/-REPRO_JOBS (its parallelism is
        # its worker count, not this host's CPUs), so only the
        # single-miss case short-circuits it.
        # Grouping still applies — a -j 1 figure run decodes each trace
        # once — _simulate_task emits the per-task telemetry here too
        # (the "worker" is simply this process), and the retry policy
        # still applies.
        for task in _make_tasks(pending):
            outcome = _run_serial_attempts(task, _TaskState(), policy,
                                           journal)
            for job, result in zip(task.jobs, outcome):
                results[job] = result
        emit_batch(pending=len(pending), dispatched=len(pending), workers=1)
        return {job: results[job] for job in jobs}

    owned: Dict[SimJob, _Ticket] = {}
    tickets: Dict[SimJob, _Ticket] = {}
    with _lock:
        workers = min(max_workers, len(pending))
        for job in pending:
            ticket = _inflight.get(job)
            if ticket is None:
                ticket = _Ticket()
                _inflight[job] = ticket
                owned[job] = ticket
            tickets[job] = ticket

    rebuilds = 0
    owned_backend = None
    try:
        if owned:
            if backend_obj is None and not resolved_local:
                # The batch needs a remote backend: build it now (not
                # for cache-only calls), and degrade to local if it
                # cannot start — a bad REPRO_BACKEND* value must bend
                # the run, not break it.
                try:
                    owned_backend = backend_mod.create(backend_name, workers)
                except (ValueError, BackendBroken) as error:
                    warnings.warn(
                        f"backend {backend_name!r} unavailable ({error}); "
                        "falling back to local", RuntimeWarning,
                        stacklevel=2)
                    telemetry.emit("backend.degraded", backend=backend_name,
                                   to="local", reason=_error_kind(error))
                backend_obj = owned_backend
            rebuilds = _execute_owned(_make_tasks(list(owned)), tickets,
                                      workers, policy, journal,
                                      backend=backend_obj)
    finally:
        if owned_backend is not None:
            try:
                owned_backend.close()
            except Exception:
                pass
        with _lock:
            for job, ticket in owned.items():
                if _inflight.get(job) is ticket:
                    del _inflight[job]
        # Never strand a coalescer: any ticket the owner could not
        # settle (an exception escaping the retry loop, KeyboardInterrupt)
        # fails loudly instead of blocking forever.
        for ticket in owned.values():
            if not ticket.settled:
                ticket.fail(CancelledError("executor aborted"))

    for job in pending:
        result = tickets[job].wait()
        # Seed the parent's memory cache: the worker wrote the disk
        # cache, but this process should not have to re-read it.
        runner.seed_result(job.workload, job.key, job.instructions, result)
        results[job] = result

    emit_batch(pending=len(pending), dispatched=len(owned), workers=workers,
               rebuilds=rebuilds)
    return {job: results[job] for job in jobs}
