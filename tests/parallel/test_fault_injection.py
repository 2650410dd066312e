"""Chaos suite: every failure path the executor claims to survive.

Each test forces a specific failure through the deterministic fault
hook (:mod:`repro.parallel.faults`) — an attempt that raises, a worker
that hangs past the per-job timeout, a worker SIGKILLed mid-job — and
asserts the two promises the fault-tolerance layer makes:

1. the batch still completes, with results **bit-identical** to a
   clean serial run (recovery changes where/when a simulation runs,
   never what it computes);
2. telemetry accounts for every recovery (``parallel.retry`` /
   ``.timeout`` / ``.pool_rebuild`` / ``.degraded`` events), so a bumpy
   run is visible in ``scripts/report.py`` output.
"""

from __future__ import annotations

import pytest

from repro import parallel, telemetry
from repro.experiments import runner
from repro.parallel import faults
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
    """Telemetry on, hangs bounded, plan/pool state reset around each test.

    Yields the telemetry directory: events must be read back from the
    merged per-process JSONL files, because fault and per-job events are
    emitted inside pool workers, not the parent.
    """
    directory = tmp_path / "telemetry"
    monkeypatch.setenv("REPRO_TELEMETRY", str(directory))
    monkeypatch.setenv("REPRO_FAULT_HANG_SECONDS", "45")
    faults.reset()
    yield directory
    faults.reset()
    parallel.shutdown()
    telemetry.reset()


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


def _assert_matches_clean_serial(by_job, monkeypatch):
    """Recompute serially with caching off; nothing a worker (or a
    faulty attempt) wrote may leak into the comparison baseline."""
    monkeypatch.setenv("REPRO_RESULT_CACHE", "0")
    runner.clear_memory_cache()
    for job, result in by_job.items():
        clean = runner.get_result(job.workload, job.key, job.instructions)
        assert clean == result, f"recovered result diverged for {job}"


class TestRaiseFault:
    def test_retried_and_bit_identical(self, events, monkeypatch):
        faults.install("raise@0")
        by_job = parallel.run_jobs(_jobs(), max_workers=2,
                                   policy=RetryPolicy(**FAST))
        retries = events("parallel.retry")
        assert any(e["error"] == "FaultInjected" for e in retries)
        assert len(events("parallel.fault")) == 1
        _assert_matches_clean_serial(by_job, monkeypatch)

    def test_serial_path_retries_too(self, events, monkeypatch):
        """-j 1 (no pool) runs the same retry policy in-process."""
        faults.install("raise@1")
        by_job = parallel.run_jobs(_jobs(), max_workers=1,
                                   policy=RetryPolicy(**FAST))
        (retry,) = events("parallel.retry")
        assert retry["where"] == "serial"
        assert retry["attempt"] == 1
        _assert_matches_clean_serial(by_job, monkeypatch)

    def test_exhausted_retries_surface_the_error(self, events):
        faults.install(f"raise@0x{FAST['max_attempts']}")
        with pytest.raises(faults.FaultInjected):
            parallel.run_jobs(_jobs(("bimodal", "gshare")), max_workers=2,
                              policy=RetryPolicy(**FAST))
        assert len(events("parallel.exhausted")) == 1


class TestWorkerKill:
    def test_dead_worker_detected_pool_rebuilt(self, events, monkeypatch):
        """SIGKILL mid-job (an OOM-kill stand-in) must not lose the batch.

        The kill repeats: a break with another task in flight charges
        nobody, so it takes the rerun of the killed task, alone, to be
        charged a ``worker_lost`` retry."""
        faults.install("kill@1x2")
        by_job = parallel.run_jobs(_jobs(), max_workers=2,
                                   policy=RetryPolicy(**FAST))
        assert events("parallel.pool_rebuild")
        kinds = {e["error"] for e in events("parallel.retry")}
        assert "worker_lost" in kinds
        _assert_matches_clean_serial(by_job, monkeypatch)

    @pytest.mark.parametrize("plan,kafka_charges", [
        ("kill@0", 0), ("kill@0x2", 1)])
    def test_only_the_killing_task_is_charged(self, events, monkeypatch,
                                              plan, kafka_charges):
        """A broken pool fails every task in flight, but only the task
        whose worker died may burn an attempt.  NodeApp hangs, so it is
        in flight when Kafka's worker dies; rebuilding the pool kills
        its worker before the hang ends."""
        faults.install(f"{plan},hang@1")
        by_job = parallel.run_jobs(
            parallel.make_jobs([("Kafka", "gshare"), ("NodeApp", "gshare")],
                               instructions=20_000),
            max_workers=2, policy=RetryPolicy(**FAST))
        charged = [e["workload"] for e in events("parallel.retry")]
        assert charged == ["Kafka"] * kafka_charges
        assert {e["workload"] for e in events("parallel.worker_lost")} == {
            "Kafka", "NodeApp"}
        _assert_matches_clean_serial(by_job, monkeypatch)

    def test_irrecoverable_pool_degrades_to_serial(self, events, monkeypatch):
        """Past the rebuild budget the batch finishes in-process."""
        faults.install("kill@0")
        by_job = parallel.run_jobs(
            _jobs(), max_workers=2,
            policy=RetryPolicy(max_pool_rebuilds=0, **FAST))
        (degraded,) = events("parallel.degraded")
        assert degraded["remaining"] >= 1
        _assert_matches_clean_serial(by_job, monkeypatch)


class TestHungWorker:
    def test_timeout_kills_hung_worker_and_retries(self, events, monkeypatch):
        faults.install("hang@0")
        by_job = parallel.run_jobs(_jobs(), max_workers=2,
                                   policy=RetryPolicy(timeout=3.0, **FAST))
        (timeout,) = events("parallel.timeout")
        assert timeout["timeout"] == 3.0
        assert events("parallel.pool_rebuild")
        _assert_matches_clean_serial(by_job, monkeypatch)


class TestBatchedChaos:
    """The failure promises hold when the dispatch unit is a batched
    task: a fault takes down the whole shared-trace pass, and recovery
    must still converge on bit-identical results."""

    def test_raise_retries_whole_task(self, events, monkeypatch):
        faults.install("raise@0")  # index 0 = the single Kafka task
        by_job = parallel.run_jobs(_batched_jobs(), max_workers=2,
                                   policy=RetryPolicy(**FAST))
        (retry,) = events("parallel.retry")
        assert retry["error"] == "FaultInjected"
        assert set(retry["key"].split(",")) == set(KEYS)
        _assert_matches_clean_serial(by_job, monkeypatch)

    def test_killed_worker_task_recovers(self, events, monkeypatch):
        faults.install("kill@0")
        by_job = parallel.run_jobs(
            parallel.make_jobs([(workload, key)
                                for workload in ("Kafka", "NodeApp")
                                for key in ("bimodal", "gshare")]),
            max_workers=2, policy=RetryPolicy(**FAST))
        assert events("parallel.pool_rebuild")
        assert len(by_job) == 4
        _assert_matches_clean_serial(by_job, monkeypatch)

    def test_batched_task_emits_one_job_event(self, events, monkeypatch):
        by_job = parallel.run_jobs(_batched_jobs(), max_workers=2,
                                   policy=RetryPolicy(**FAST))
        (event,) = events("parallel.job")
        assert event["batched"] == len(KEYS)
        assert set(event["key"].split(",")) == set(KEYS)
        assert len(by_job) == len(KEYS)


class TestFig09StyleChaosRun:
    def test_raise_hang_and_kill_across_one_figure_run(self, events, monkeypatch):
        """The acceptance scenario: a fig09-style batch absorbs one of
        each fault kind and still reproduces the clean figure exactly."""
        from repro.experiments import fig09

        # Four workloads, so four tasks for the plan's indices to hit.
        # kill first (index 0) so its pool rebuild cannot retroactively
        # swallow the others; the raise and the hang repeat (x2) so they
        # survive a collateral rebuild — a fault is consumed at
        # submission, and the kill can break the pool before a sibling
        # worker applies its share — and deterministically fire.  Each
        # task runs Fig 9's four configurations, so its deadline is
        # 4 x the per-job timeout: 4 s, far under the 45 s hang.
        monkeypatch.setenv("REPRO_WORKLOADS", FIG09_WORKLOADS)
        faults.install("kill@0,raise@1x2,hang@3x2")
        jobs = parallel.make_jobs(fig09.jobs())
        by_job = parallel.run_jobs(
            jobs, max_workers=2,
            policy=RetryPolicy(timeout=1.0, max_attempts=4,
                               base_delay=0.01, max_delay=0.05))

        injected = {e["mode"] for e in events("parallel.fault")}
        assert injected == {"raise", "hang", "kill"}
        assert events("parallel.timeout"), "hang never hit the timeout"
        assert events("parallel.pool_rebuild")
        assert len(events("parallel.retry")) >= 3
        _assert_matches_clean_serial(by_job, monkeypatch)

        # The recovered batch must also format to the exact clean figure.
        rows = fig09.run()
        assert rows[-1]["workload"] == "Mean"
