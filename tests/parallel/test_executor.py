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

KEYS = ("bimodal", "gshare", "tsl64")


@pytest.fixture(autouse=True)
def teardown_pool():
    yield
    parallel.shutdown()


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
    def test_parallel_matches_serial(self, isolated_caches, monkeypatch):
        """Worker-computed results equal serial results, field for field."""
        jobs = parallel.make_jobs([("Kafka", key) for key in KEYS])
        by_job = parallel.run_jobs(jobs, max_workers=2)
        assert set(by_job) == set(jobs)

        # Recompute everything serially with caching off, so nothing the
        # workers wrote can leak into the comparison baseline.
        monkeypatch.setenv("REPRO_RESULT_CACHE", "0")
        runner.clear_memory_cache()
        for job in jobs:
            serial = runner.get_result(job.workload, job.key, job.instructions)
            assert serial == by_job[job]

    def test_duplicate_jobs_run_once(self, isolated_caches, monkeypatch):
        # REPRO_BATCH=0 keeps one get_result call per unique job; the
        # batched path would fold both into a single run_batch call.
        monkeypatch.setenv("REPRO_BATCH", "0")
        calls = []
        real = runner.get_result

        def counting(workload, key, instructions=None):
            calls.append((workload, key))
            return real(workload, key, instructions)

        monkeypatch.setattr(runner, "get_result", counting)
        jobs = parallel.make_jobs(
            [("Kafka", "bimodal")] * 3 + [("Kafka", "gshare")])
        by_job = parallel.run_jobs(jobs, max_workers=1)
        assert len(calls) == 2  # deduplicated before dispatch
        assert len(by_job) == 2  # dict keyed by unique job

    def test_cached_jobs_skip_dispatch(self, isolated_caches, monkeypatch):
        expected = runner.get_result("Kafka", "bimodal")

        def explode(*args, **kwargs):  # pragma: no cover - must not run
            raise AssertionError("cached job reached the runner")

        monkeypatch.setattr(runner, "get_result", explode)
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
        """Per-job deadlines start at submission, so submission must
        mean a worker picks the job up immediately: with more pending
        jobs than workers, the executor may never queue more futures
        than the pool has workers, or queued (healthy) jobs would burn
        their timeout budget waiting for a slot."""
        import threading

        from repro.parallel import executor

        # Six one-job tasks: batching would collapse the six jobs into
        # two tasks, leaving the slot bound nothing to push against.
        monkeypatch.setenv("REPRO_BATCH", "0")

        lock = threading.Lock()
        outstanding = set()
        peaks = []
        real_get_pool = executor._get_pool

        class TrackingPool:
            def __init__(self, pool):
                self._pool = pool

            def submit(self, fn, *args, **kwargs):
                future = self._pool.submit(fn, *args, **kwargs)
                with lock:
                    outstanding.add(future)
                    peaks.append(len(outstanding))

                def done(f):
                    with lock:
                        outstanding.discard(f)

                future.add_done_callback(done)
                return future

        monkeypatch.setattr(
            executor, "_get_pool",
            lambda workers: TrackingPool(real_get_pool(workers)))
        jobs = parallel.make_jobs([(workload, key)
                                   for workload in ("Kafka", "NodeApp")
                                   for key in KEYS])
        by_job = parallel.run_jobs(jobs, max_workers=2)
        assert set(by_job) == set(jobs)
        assert peaks and max(peaks) <= 2

    def test_pool_grows_for_larger_batches(self, isolated_caches):
        """A first small batch must not pin the pool size: once its
        futures drain, a later larger batch gets a larger pool."""
        from repro.parallel import executor

        small = parallel.make_jobs([("Kafka", "bimodal"),
                                    ("Kafka", "gshare")])
        parallel.run_jobs(small, max_workers=2)
        assert executor._pool_workers == 2

        big = parallel.make_jobs([("NodeApp", key) for key in KEYS])
        parallel.run_jobs(big, max_workers=3)
        assert executor._pool_workers == 3


class TestBatching:
    """Shared-trace task grouping (the REPRO_BATCH knob)."""

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

    def test_disabled_by_env(self, monkeypatch):
        from repro.parallel import executor

        monkeypatch.setenv("REPRO_BATCH", "0")
        assert not parallel.batching_enabled()
        jobs = parallel.make_jobs([("Kafka", key) for key in KEYS],
                                  instructions=100)
        tasks = executor._make_tasks(jobs)
        assert [t.jobs for t in tasks] == [(job,) for job in jobs]

    def test_batched_run_matches_serial(self, isolated_caches, monkeypatch):
        """The whole point: one trace load per workload must be
        bit-identical to the per-job path, end to end."""
        jobs = parallel.make_jobs([(workload, key)
                                   for workload in ("Kafka", "NodeApp")
                                   for key in KEYS])
        by_job = parallel.run_jobs(jobs, max_workers=2)

        monkeypatch.setenv("REPRO_BATCH", "0")
        monkeypatch.setenv("REPRO_RESULT_CACHE", "0")
        runner.clear_memory_cache()
        for job in jobs:
            serial = runner.get_result(job.workload, job.key,
                                       job.instructions)
            assert serial == by_job[job]

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


class TestRunMany:
    def test_run_many_matches_get_result(self, isolated_caches):
        pairs = [("Kafka", "bimodal"), ("Kafka", "gshare")]
        results = runner.run_many(pairs, max_workers=1)
        assert set(results) == set(pairs)
        for workload, key in pairs:
            assert results[(workload, key)] == runner.get_result(workload, key)
