"""Chaos suite: every failure path the executor claims to survive.

Each test forces a specific failure through the deterministic fault
hook (:mod:`repro.parallel.faults`) — an attempt that raises, a worker
that hangs past the per-job timeout, a worker SIGKILLed mid-job — and
asserts the two promises the fault-tolerance layer makes:

1. the batch still completes, with results **bit-identical** to a
   clean serial run (recovery changes where/when a simulation runs,
   never what it computes);
2. telemetry accounts for every recovery (``parallel.retry`` /
   ``.timeout`` / ``.degraded`` events), each charged to the one task
   whose attempt failed, so a bumpy run is visible in
   ``scripts/report.py`` output.
"""

from __future__ import annotations

import errno
import multiprocessing
from collections import Counter

import pytest

from repro import parallel, telemetry
from repro.experiments import runner
from repro.experiments.journal import RunJournal
from repro.parallel import faults
from repro.parallel.backend import local
from repro.parallel.retry import RetryPolicy

KEYS = ("bimodal", "gshare", "tsl64")

#: One workload per job, so every job is its own task and the fault
#: plan's indices (which count dispatched tasks) address single jobs.
SOLO_WORKLOADS = ("Kafka", "NodeApp", "Tomcat")

#: Fig 9's workloads in the CI chaos run: one four-job task apiece.
FIG09_WORKLOADS = "Kafka,Tomcat,NodeApp,PHPWiki"

#: Fast backoff so a retry storm costs milliseconds, not the defaults.
FAST = dict(max_attempts=3, base_delay=0.01, max_delay=0.05, jitter=0.5)


@pytest.fixture(autouse=True)
def chaos_env(isolated_caches, tmp_path, monkeypatch):
    """Telemetry on, hangs bounded, plan state reset around each test.

    Yields the telemetry directory: events must be read back from the
    merged per-process JSONL files, because fault and per-job events are
    emitted inside child processes, not the parent.
    """
    directory = tmp_path / "telemetry"
    monkeypatch.setenv("REPRO_TELEMETRY", str(directory))
    monkeypatch.setenv("REPRO_FAULT_HANG_SECONDS", "45")
    faults.reset()
    yield directory
    faults.reset()
    telemetry.reset()


@pytest.fixture
def fault_plan(monkeypatch):
    """Set the fault plan the way CI does, through ``REPRO_FAULTS``."""
    def _set(spec):
        monkeypatch.setenv(faults.ENV_VAR, spec)
        faults.reset()

    return _set


@pytest.fixture
def events(chaos_env):
    def _load(name):
        return [e for e in telemetry.load_events(chaos_env)
                if e["event"] == name]

    return _load


def _jobs(keys=KEYS):
    """One job per key, each on its own workload (so its own task)."""
    return parallel.make_jobs(list(zip(SOLO_WORKLOADS, keys)))


def _batched_jobs(keys=KEYS):
    """Every key on Kafka: one shared-trace task."""
    return parallel.make_jobs([("Kafka", key) for key in keys])


def _assert_matches_clean_serial(by_job, fresh_cache):
    """Recompute serially in an empty cache; nothing a child (or a
    faulty attempt) wrote may leak into the comparison baseline."""
    results = fresh_cache()
    for job, result in by_job.items():
        clean = runner.get_result(job.workload, job.key, job.instructions)
        assert clean == result, f"recovered result diverged for {job}"
    assert len(list(results.glob("*.json"))) == len(by_job)


class TestRaiseFault:
    def test_retried_and_bit_identical(self, events, fresh_cache, fault_plan):
        fault_plan("raise@0")
        by_job = parallel.run_jobs(_jobs(), max_workers=2,
                                   policy=RetryPolicy(**FAST))
        retries = events("parallel.retry")
        assert any(e["error"] == "FaultInjected" for e in retries)
        assert len(events("parallel.fault")) == 1
        _assert_matches_clean_serial(by_job, fresh_cache)

    def test_serial_path_retries_too(self, events, fresh_cache, fault_plan):
        """-j 1 (no child) runs each attempt in this process, under the
        same retry loop."""
        fault_plan("raise@1")
        by_job = parallel.run_jobs(_jobs(), max_workers=1,
                                   policy=RetryPolicy(**FAST))
        (fault,) = events("parallel.fault")
        assert fault["in_worker"] is False
        (retry,) = events("parallel.retry")
        assert (retry["workload"], retry["attempt"]) == (SOLO_WORKLOADS[1], 1)
        _assert_matches_clean_serial(by_job, fresh_cache)

    @pytest.mark.parametrize("max_workers", [1, 2])
    def test_exhausted_retries_surface_the_error(self, events, max_workers,
                                                 fault_plan):
        """At any -j, the exhausted task raises only after the other
        task has settled: its result is cached and journalled."""
        fault_plan(f"raise@0x{FAST['max_attempts']}")
        jobs = _jobs(("bimodal", "gshare"))
        with pytest.raises(faults.FaultInjected):
            parallel.run_jobs(jobs, max_workers=max_workers,
                              policy=RetryPolicy(**FAST))
        assert len(events("parallel.exhausted")) == 1
        other = jobs[1]
        with RunJournal.open() as journal:
            assert other in journal and jobs[0] not in journal
        runner.clear_memory_cache()
        assert runner.peek_result(*other) is not None


class TestWorkerKill:
    def test_dead_worker_detected_pool_rebuilt(self, events, fresh_cache,
                                               fault_plan):
        """SIGKILL mid-job (an OOM-kill stand-in) must not lose the batch:
        the dead child's task alone is charged a ``worker_lost`` retry."""
        fault_plan("kill@1")
        by_job = parallel.run_jobs(_jobs(), max_workers=2,
                                   policy=RetryPolicy(**FAST))
        charged = [(e["workload"], e["error"])
                   for e in events("parallel.retry")]
        assert charged == [(SOLO_WORKLOADS[1], "worker_lost")]
        _assert_matches_clean_serial(by_job, fresh_cache)

    def test_kill_resubmits_and_charges_only_its_task(self, events,
                                                      monkeypatch,
                                                      fresh_cache,
                                                      fault_plan):
        """A dead child is its own task's failure and no other's.
        NodeApp's larger budget keeps it running when Kafka's child is
        killed: it runs once and is never charged, while Kafka is
        submitted again and charged once."""
        submitted = []
        real_submit = local.LocalBackend.submit

        def counting(self, task, fault):
            submitted.append(task.workload)
            return real_submit(self, task, fault)

        monkeypatch.setattr(local.LocalBackend, "submit", counting)
        fault_plan("kill@0")
        by_job = parallel.run_jobs(
            [parallel.SimJob("Kafka", "gshare", 20_000),
             parallel.SimJob("NodeApp", "gshare", 400_000)],
            max_workers=2, policy=RetryPolicy(**FAST))
        assert submitted.count("Kafka") == 2
        assert submitted.count("NodeApp") == 1
        charged = [(e["workload"], e["error"])
                   for e in events("parallel.retry")]
        assert charged == [("Kafka", "worker_lost")]
        _assert_matches_clean_serial(by_job, fresh_cache)

    def test_irrecoverable_pool_degrades_to_serial(self, events, monkeypatch,
                                                   fresh_cache):
        """When no child can be started the batch finishes in-process.

        The first child starts and the second cannot, so the running
        child is killed too and all three tasks run here, uncharged."""
        real_start = multiprocessing.Process.start
        starts = []

        def start_once(self):
            starts.append(self)
            if len(starts) > 1:
                raise OSError(errno.EAGAIN, "Resource temporarily unavailable")
            real_start(self)

        monkeypatch.setattr(multiprocessing.Process, "start", start_once)
        by_job = parallel.run_jobs(_jobs(), max_workers=2,
                                   policy=RetryPolicy(**FAST))
        (degraded,) = events("parallel.degraded")
        assert degraded["remaining"] == len(SOLO_WORKLOADS)
        assert not events("parallel.retry")
        assert multiprocessing.active_children() == []
        _assert_matches_clean_serial(by_job, fresh_cache)


class TestHungWorker:
    def test_timeout_kills_hung_worker_and_retries(self, events, fresh_cache,
                                                   fault_plan):
        """The deadline kills the hung task's child alone: the other
        tasks run once, and only the hung one is charged."""
        fault_plan("hang@0")
        by_job = parallel.run_jobs(_jobs(), max_workers=2,
                                   policy=RetryPolicy(timeout=3.0, **FAST))
        (timeout,) = events("parallel.timeout")
        assert timeout["timeout"] == 3.0
        charged = [(e["workload"], e["error"])
                   for e in events("parallel.retry")]
        assert charged == [(SOLO_WORKLOADS[0], "timeout")]
        ran = sorted(e["workload"] for e in events("parallel.job"))
        assert ran == sorted(SOLO_WORKLOADS)
        _assert_matches_clean_serial(by_job, fresh_cache)


class TestBatchedChaos:
    """The failure promises hold when the dispatch unit is a batched
    task: a fault takes down the whole shared-trace pass, and recovery
    must still converge on bit-identical results."""

    def test_raise_retries_whole_task(self, events, fresh_cache, fault_plan):
        fault_plan("raise@0")  # index 0 = the single Kafka task
        by_job = parallel.run_jobs(_batched_jobs(), max_workers=2,
                                   policy=RetryPolicy(**FAST))
        (retry,) = events("parallel.retry")
        assert retry["error"] == "FaultInjected"
        assert set(retry["key"].split(",")) == set(KEYS)
        _assert_matches_clean_serial(by_job, fresh_cache)

    def test_killed_worker_task_recovers(self, events, fresh_cache,
                                         fault_plan):
        fault_plan("kill@0")
        by_job = parallel.run_jobs(
            parallel.make_jobs([(workload, key)
                                for workload in ("Kafka", "NodeApp")
                                for key in ("bimodal", "gshare")]),
            max_workers=2, policy=RetryPolicy(**FAST))
        charged = [(e["workload"], e["error"])
                   for e in events("parallel.retry")]
        assert charged == [("Kafka", "worker_lost")]
        assert len(by_job) == 4
        _assert_matches_clean_serial(by_job, fresh_cache)

    def test_batched_task_emits_one_job_event(self, events, monkeypatch):
        by_job = parallel.run_jobs(_batched_jobs(), max_workers=2,
                                   policy=RetryPolicy(**FAST))
        (event,) = events("parallel.job")
        assert event["batched"] == len(KEYS)
        assert set(event["key"].split(",")) == set(KEYS)
        assert len(by_job) == len(KEYS)


class TestFig09StyleChaosRun:
    def test_raise_hang_and_kill_across_one_figure_run(self, events,
                                                       monkeypatch,
                                                       fresh_cache,
                                                       fault_plan):
        """The acceptance scenario, with CI's fault plan: a fig09-style
        batch absorbs one of each fault kind, charges each to the task
        it hit, and still reproduces the clean figure exactly."""
        from repro.experiments import fig09

        # Four workloads, so four tasks for the plan's indices to hit.
        # Each task runs Fig 9's four configurations, so its deadline is
        # 4 x the per-job timeout: 4 s, far under the 45 s hang and
        # several times a healthy task's run at this budget on either
        # engine.
        monkeypatch.setenv("REPRO_WORKLOADS", FIG09_WORKLOADS)
        monkeypatch.setenv("REPRO_INSTRUCTIONS", "20000")
        fault_plan("kill@0,raise@1,hang@3x2")
        jobs = parallel.make_jobs(fig09.jobs())
        by_job = parallel.run_jobs(
            jobs, max_workers=2,
            policy=RetryPolicy(timeout=1.0, base_delay=0.01, max_delay=0.05))

        assert Counter(e["mode"] for e in events("parallel.fault")) == {
            "kill": 1, "raise": 1, "hang": 2}
        assert len(events("parallel.timeout")) == 2
        charged = Counter((e["workload"], e["error"])
                          for e in events("parallel.retry"))
        workloads = FIG09_WORKLOADS.split(",")
        assert charged == {(workloads[0], "worker_lost"): 1,
                           (workloads[1], "FaultInjected"): 1,
                           (workloads[3], "timeout"): 2}
        _assert_matches_clean_serial(by_job, fresh_cache)

        # The recovered batch must also format to the exact clean figure.
        rows = fig09.run()
        assert rows[-1]["workload"] == "Mean"
