"""Parallel executor: bit-identical to the serial runner, cache-aware.

The correctness bar for ``repro.parallel`` is strict equality: fanning a
batch of jobs across worker processes must produce *exactly* the
``SimulationResult`` values the serial ``get_result`` path computes,
because figures generated with ``--jobs N`` must match figures generated
serially to the last misprediction.
"""

from __future__ import annotations

import pytest

from repro import parallel
from repro.experiments import runner
from repro.parallel.backend import local

KEYS = ("bimodal", "gshare", "tsl64")

#: Distinct workloads, so jobs that must each be their own task (one
#: per (workload, instructions) pair) can get one apiece.
SOLO_WORKLOADS = ("Kafka", "NodeApp", "Tomcat", "PHPWiki", "TPCC", "HTTP")


class TestJobConstruction:
    def test_make_jobs_resolves_experiment_budget(self, isolated_caches):
        jobs = parallel.make_jobs([("Kafka", "bimodal")])
        assert jobs == [parallel.SimJob("Kafka", "bimodal", 60_000)]

    def test_make_jobs_explicit_instructions(self, isolated_caches):
        (job,) = parallel.make_jobs([("Kafka", "bimodal")], instructions=123)
        assert job.instructions == 123

    def test_default_jobs_env_override(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "3")
        assert parallel.default_jobs() == 3

    def test_default_jobs_unset_uses_cpu_count(self, monkeypatch):
        monkeypatch.delenv("REPRO_JOBS", raising=False)
        import os

        assert parallel.default_jobs() == (os.cpu_count() or 1)

    def test_non_integer_repro_jobs_warns_and_falls_back(self, monkeypatch):
        """A typo'd REPRO_JOBS must not raise deep inside the executor."""
        import os

        monkeypatch.setenv("REPRO_JOBS", "four")
        with pytest.warns(RuntimeWarning, match="not an integer"):
            assert parallel.default_jobs() == (os.cpu_count() or 1)

    def test_non_positive_repro_jobs_warns_and_falls_back(self, monkeypatch):
        import os

        for bad in ("0", "-2"):
            monkeypatch.setenv("REPRO_JOBS", bad)
            with pytest.warns(RuntimeWarning, match="not positive"):
                assert parallel.default_jobs() == (os.cpu_count() or 1)


class TestRunJobs:
    def test_parallel_matches_serial(self, isolated_caches, fresh_cache):
        """Worker-computed results equal serial results, field for field."""
        jobs = parallel.make_jobs([("Kafka", key) for key in KEYS])
        by_job = parallel.run_jobs(jobs, max_workers=2)
        assert set(by_job) == set(jobs)

        # Recompute everything serially in an empty cache, so nothing the
        # workers wrote can leak into the comparison baseline.
        results = fresh_cache()
        for job in jobs:
            serial = runner.get_result(job.workload, job.key, job.instructions)
            assert serial == by_job[job]
        assert len(list(results.glob("*.json"))) == len(jobs)

    def test_serial_run_matches_get_result(self, isolated_caches,
                                           fresh_cache):
        """Attempts run in this process (one worker) equal ``get_result``
        recomputed in an empty cache."""
        jobs = parallel.make_jobs([("Kafka", key) for key in KEYS])
        by_job = parallel.run_jobs(jobs, max_workers=1)
        assert set(by_job) == set(jobs)
        fresh_cache()
        for job in jobs:
            assert runner.get_result(job.workload, job.key) == by_job[job]

    def test_duplicate_jobs_run_once(self, isolated_caches, monkeypatch):
        # One workload per unique job keeps one run_batch call each;
        # a shared workload would fold both into one call.
        calls = []
        real = runner.run_batch

        def counting(workload, keys, instructions=None):
            calls.append((workload, tuple(keys)))
            return real(workload, keys, instructions)

        monkeypatch.setattr(runner, "run_batch", counting)
        jobs = parallel.make_jobs(
            [("Kafka", "bimodal")] * 3 + [("NodeApp", "gshare")])
        by_job = parallel.run_jobs(jobs, max_workers=1)
        # Deduplicated before dispatch.
        assert calls == [("Kafka", ("bimodal",)), ("NodeApp", ("gshare",))]
        assert len(by_job) == 2  # dict keyed by unique job

    def test_cached_jobs_skip_dispatch(self, isolated_caches, monkeypatch):
        expected = runner.get_result("Kafka", "bimodal")

        def explode(*args, **kwargs):  # pragma: no cover - must not run
            raise AssertionError("cached job reached the runner")

        monkeypatch.setattr(runner, "run_batch", explode)
        (job,) = parallel.make_jobs([("Kafka", "bimodal")])
        assert parallel.run_jobs([job], max_workers=2)[job] == expected

    def test_disk_cache_answers_fresh_process_state(self, isolated_caches):
        """A result cached on disk is found without re-simulation."""
        expected = runner.get_result("Kafka", "bimodal")
        runner.clear_memory_cache()
        (job,) = parallel.make_jobs([("Kafka", "bimodal")])
        assert parallel.run_jobs([job], max_workers=2)[job] == expected

    def test_results_seed_parent_memory_cache(self, isolated_caches):
        jobs = parallel.make_jobs([("Kafka", "bimodal"), ("Kafka", "gshare")])
        by_job = parallel.run_jobs(jobs, max_workers=2)
        for job in jobs:
            # ``is`` — get_result must hit the seeded memory cache, not
            # re-read the disk file (let alone re-simulate).
            assert runner.get_result(job.workload, job.key,
                                     job.instructions) is by_job[job]


class TestScheduling:
    def test_in_flight_never_exceeds_workers(self, isolated_caches,
                                             monkeypatch):
        """Per-task deadlines start at submission, so submission must
        mean the task starts running: with more pending tasks than
        workers, the executor may never have more children running
        than it has workers, or queued (healthy) tasks would burn their
        timeout budget waiting for a slot."""
        # Six one-job tasks, one per workload: two workloads would
        # group the six jobs into two tasks, leaving the slot bound
        # nothing to push against.
        running = set()
        peaks = []
        real_submit = local.LocalBackend.submit
        real_wait = local.LocalBackend.wait

        def submit(self, task, fault):
            future = real_submit(self, task, fault)
            running.add(future)
            peaks.append(len(running))
            return future

        def wait(self, timeout):
            settled = real_wait(self, timeout)
            running.difference_update(settled)
            return settled

        monkeypatch.setattr(local.LocalBackend, "submit", submit)
        monkeypatch.setattr(local.LocalBackend, "wait", wait)
        jobs = parallel.make_jobs(list(zip(SOLO_WORKLOADS, KEYS * 2)))
        by_job = parallel.run_jobs(jobs, max_workers=2)
        assert set(by_job) == set(jobs)
        assert len(peaks) == len(SOLO_WORKLOADS)
        assert max(peaks) == 2


class TestBatching:
    """Shared-trace task grouping."""

    def test_jobs_group_by_workload_and_budget(self):
        from repro.parallel import executor

        jobs = [
            parallel.SimJob("Kafka", "bimodal", 100),
            parallel.SimJob("NodeApp", "bimodal", 100),
            parallel.SimJob("Kafka", "gshare", 100),
            parallel.SimJob("Kafka", "bimodal", 200),  # other budget
        ]
        tasks = executor._make_tasks(jobs)
        assert [[j.key for j in t.jobs] for t in tasks] == [
            ["bimodal", "gshare"], ["bimodal"], ["bimodal"]]
        assert [(t.workload, t.instructions) for t in tasks] == [
            ("Kafka", 100), ("NodeApp", 100), ("Kafka", 200)]

    def test_batched_run_matches_serial(self, isolated_caches, fresh_cache):
        """The whole point: one trace load per workload must be
        bit-identical to the per-job path, end to end."""
        jobs = parallel.make_jobs([(workload, key)
                                   for workload in ("Kafka", "NodeApp")
                                   for key in KEYS])
        by_job = parallel.run_jobs(jobs, max_workers=2)

        results = fresh_cache()
        for job in jobs:
            serial = runner.get_result(job.workload, job.key,
                                       job.instructions)
            assert serial == by_job[job]
        assert len(list(results.glob("*.json"))) == len(jobs)

    def test_serial_fallback_batches_too(self, isolated_caches, monkeypatch):
        """-j 1 still decodes each workload trace once per group."""
        calls = []
        real = runner.run_batch

        def counting(workload, keys, instructions=None):
            calls.append((workload, tuple(keys)))
            return real(workload, keys, instructions)

        monkeypatch.setattr(runner, "run_batch", counting)
        jobs = parallel.make_jobs([("Kafka", key) for key in KEYS])
        by_job = parallel.run_jobs(jobs, max_workers=1)
        assert calls == [("Kafka", KEYS)]
        assert set(by_job) == set(jobs)
