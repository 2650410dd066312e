"""The child-per-attempt backend: parity, the caller's settings, reaping.

Four promises:

1. **Children compute the serial bytes** — run_jobs through
   ``LocalBackend`` is byte-identical to serial ``get_result`` calls
   (the executor suite pins the scheduling).
2. **Configuration travels** — ``REPRO_ENGINE`` and
   ``REPRO_RESULT_CACHE`` reach the child, which is forked when its
   attempt starts; parametrized over the knob list.
3. **Settings follow the caller** — a later batch's children see the
   environment of the later call, not of an earlier one.
4. **No child outlives its batch** — whether ``run_jobs`` returns,
   raises an exhausted task's error or is interrupted.
"""

from __future__ import annotations

import multiprocessing
import os
from typing import Dict, Optional, Sequence

import pytest

from repro import parallel, telemetry
from repro.experiments import runner
from repro.experiments.journal import result_digest
from repro.parallel import executor, faults
from repro.parallel.backend import local
from repro.parallel.retry import RetryPolicy

FAST = dict(max_attempts=3, base_delay=0.01, max_delay=0.05, jitter=0.5)

#: Every knob a child needs to compute the submitter's configuration,
#: not its own.
KNOBS = ("REPRO_ENGINE", "REPRO_RESULT_CACHE")


def _probe_env(names: Sequence[str]) -> Dict[str, Optional[str]]:
    """Report this process's values for ``names`` (runs in a child)."""
    return {name: os.environ.get(name) for name in names}


@pytest.fixture(autouse=True)
def backend_env(isolated_caches):
    faults.reset()
    yield
    faults.reset()
    telemetry.reset()


def _jobs(pairs=(("Kafka", "bimodal"), ("Kafka", "gshare"))):
    return parallel.make_jobs(list(pairs))


def _digests(by_job):
    return {job: result_digest(result) for job, result in by_job.items()}


def _serial_digests(jobs, monkeypatch):
    monkeypatch.setenv("REPRO_RESULT_CACHE", "0")
    runner.clear_memory_cache()
    digests = {job: result_digest(
        runner.get_result(job.workload, job.key, job.instructions))
        for job in jobs}
    monkeypatch.delenv("REPRO_RESULT_CACHE")
    runner.clear_memory_cache()
    return digests


class TestLocalParity:
    def test_default_backend_is_byte_identical_to_serial(self, monkeypatch):
        jobs = _jobs()
        by_job = parallel.run_jobs(jobs, max_workers=2,
                                   policy=RetryPolicy(**FAST))
        assert _digests(by_job) == _serial_digests(jobs, monkeypatch)


class TestEnvPropagationPool:
    """Knobs reach the child that runs a task attempt.

    A child is forked when its attempt starts, so a knob set before the
    submission must be visible inside it.
    """

    @pytest.mark.parametrize("knob", KNOBS)
    def test_knob_reaches_pool_worker(self, knob, monkeypatch):
        monkeypatch.setattr(executor, "_simulate_task",
                            lambda task, fault, in_worker: _probe_env([knob]))
        monkeypatch.setenv(knob, "probe-value")
        backend = local.LocalBackend(1)
        future = backend.submit(executor._make_tasks(_jobs())[0], None)
        assert backend.wait(60) == [future]
        assert future.result() == {knob: "probe-value"}


class TestCallerSettings:
    def test_later_batch_writes_under_the_new_cache_dir(self, isolated_caches,
                                                        monkeypatch):
        """Each batch's children run under the environment of its own
        call: after ``REPRO_CACHE_DIR`` moves, the next batch's result
        files land in the new directory and none in the old one."""
        keys = ("bimodal", "gshare", "bimode", "perfect")
        first, second = isolated_caches / "first", isolated_caches / "second"
        for directory, workload in ((first, "Kafka"), (second, "NodeApp")):
            monkeypatch.setenv("REPRO_CACHE_DIR", str(directory))
            parallel.run_jobs(_jobs([(workload, key) for key in keys]),
                              max_workers=2, policy=RetryPolicy(**FAST))

        def written(directory, workload):
            return sorted(path.name for path in
                          (directory / "results").glob(f"{workload}-*.json"))

        assert len(written(first, "Kafka")) == len(keys)
        assert len(written(second, "NodeApp")) == len(keys)
        assert written(first, "NodeApp") == []


class TestNoLeftoverChild:
    @pytest.mark.parametrize("ending", ["return", "exhausted", "interrupt"])
    def test_no_child_outlives_run_jobs(self, ending, monkeypatch):
        """Every child is reaped before ``run_jobs`` hands control back,
        however the call ends: there is no pool to shut down."""
        jobs = _jobs((("Kafka", "bimodal"), ("NodeApp", "bimodal")))
        if ending == "return":
            parallel.run_jobs(jobs, max_workers=2, policy=RetryPolicy(**FAST))
        elif ending == "exhausted":
            faults.install(f"raise@0x{FAST['max_attempts']}")
            with pytest.raises(faults.FaultInjected):
                parallel.run_jobs(jobs, max_workers=2,
                                  policy=RetryPolicy(**FAST))
        else:
            def interrupted(self, timeout):
                raise KeyboardInterrupt

            # Both children are running when the wait is interrupted.
            monkeypatch.setattr(local.LocalBackend, "wait", interrupted)
            with pytest.raises(KeyboardInterrupt):
                parallel.run_jobs(jobs, max_workers=2,
                                  policy=RetryPolicy(**FAST))
        assert multiprocessing.active_children() == []
