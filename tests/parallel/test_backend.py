"""The pool backend: parity with serial runs, and env knobs at fork.

Two promises:

1. **The pool computes the serial bytes** — run_jobs through
   ``LocalBackend`` is byte-identical to serial ``get_result`` calls
   (the executor suite pins the pool mechanics).
2. **Configuration travels** — ``REPRO_ENGINE`` and
   ``REPRO_RESULT_CACHE`` reach pool workers, which inherit the
   parent's environment at fork; parametrized over the knob list.
"""

from __future__ import annotations

import os
from typing import Dict, Optional, Sequence

import pytest

from repro import parallel, telemetry
from repro.experiments import runner
from repro.experiments.journal import result_digest
from repro.parallel import faults
from repro.parallel.backend import local
from repro.parallel.retry import RetryPolicy

FAST = dict(max_attempts=3, base_delay=0.01, max_delay=0.05, jitter=0.5)

#: Every knob a worker needs to compute the submitter's configuration,
#: not its own.
KNOBS = ("REPRO_ENGINE", "REPRO_RESULT_CACHE")


def _probe_env(names: Sequence[str]) -> Dict[str, Optional[str]]:
    """Report this process's values for ``names`` (runs in a worker)."""
    return {name: os.environ.get(name) for name in names}


@pytest.fixture(autouse=True)
def backend_env(isolated_caches):
    faults.reset()
    yield
    faults.reset()
    parallel.shutdown()
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
    """Knobs reach ProcessPool workers.

    Pool workers inherit the parent's environment at fork, so setting a
    knob before the first submission must be visible inside the worker.
    """

    @pytest.mark.parametrize("knob", KNOBS)
    def test_knob_reaches_pool_worker(self, knob, monkeypatch):
        monkeypatch.setenv(knob, "probe-value")
        parallel.shutdown()  # a fresh pool, forked under this env
        pool = local._get_pool(1)
        try:
            seen = pool.submit(_probe_env, [knob]).result(timeout=60)
        finally:
            parallel.shutdown()
        assert seen == {knob: "probe-value"}
