"""Parallel experiment execution.

Fans simulation jobs across a local process pool with cache-aware
dispatch: duplicate jobs run once, jobs whose results are already
cached never reach the pool, and completed results land in both the
on-disk result cache and the calling process's in-memory cache.  Jobs
sharing a (workload, instructions) pair are grouped into one batched
task that decodes the trace once for all of them.

The scheduler is fault-tolerant: failed attempts retry with bounded
jittered backoff (:mod:`repro.parallel.retry`), hung workers are timed
out and their pool rebuilt, dead workers are detected and the stranded
tasks re-dispatched, and an irrecoverable pool degrades to serial
in-process execution.  Every failure path can be forced
deterministically via :mod:`repro.parallel.faults` (``REPRO_FAULTS``).
"""

from repro.parallel import faults
from repro.parallel.backend.local import shutdown
from repro.parallel.executor import (
    SimJob,
    default_jobs,
    make_jobs,
    run_jobs,
)
from repro.parallel.retry import RetryPolicy, backoff_delay

__all__ = [
    "RetryPolicy",
    "SimJob",
    "backoff_delay",
    "default_jobs",
    "faults",
    "make_jobs",
    "run_jobs",
    "shutdown",
]
