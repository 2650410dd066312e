"""Parallel experiment execution.

Fans simulation jobs across local child processes with cache-aware
dispatch: duplicate jobs run once, jobs whose results are already
cached start no child, and completed results land in both the on-disk
result cache and the calling process's in-memory cache.  Jobs sharing a
(workload, instructions) pair are grouped into one batched task that
decodes the trace once for all of them, and each attempt of a task runs
in a child process of its own (in this process with one worker).

The scheduler is fault-tolerant: a failed attempt — one that raises,
loses its child or misses its deadline — is charged to its task alone
and retried with bounded jittered backoff (:mod:`repro.parallel.retry`),
by the same loop wherever the attempt runs; if no child can be started,
the batch finishes in-process.  Every failure path can be forced
deterministically via :mod:`repro.parallel.faults` (``REPRO_FAULTS``).
"""

from repro.parallel import faults
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
]
