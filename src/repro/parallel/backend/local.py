"""Submit tasks to, and rebuild, the executor's process pool.

:class:`LocalBackend` is a thin adapter over the executor module's
process-global pool state (``executor._get_pool`` / ``_pool_futures`` /
``_discard_pool``), not an owner of a private pool: the pool is shared
across ``run_jobs`` calls, grows lazily, and is torn down only by
``parallel.shutdown()`` (tests monkeypatch ``executor._get_pool`` and
read ``executor._pool_workers``; the adapter resolves both through the
module at call time to keep that surface live).
"""

from __future__ import annotations

from concurrent.futures import Future
from typing import Optional


class LocalBackend:
    """Run tasks on the module-global process pool."""

    def __init__(self, max_workers: int) -> None:
        self._max_workers = max(1, int(max_workers))

    def submit(self, task, fault: Optional[str]) -> Future:
        """Queue one task attempt; ``fault`` is its chaos assignment."""
        from repro.parallel import executor

        with executor._lock:
            pool = executor._get_pool(self._max_workers)
            future = pool.submit(executor._simulate_task, task, fault, True)
            executor._pool_futures.add(future)
        return future

    def reap(self, done) -> None:
        """Forget completed futures, so the pool may resize when idle."""
        from repro.parallel import executor

        with executor._lock:
            executor._pool_futures.difference_update(done)

    def reset(self, kill: bool = False) -> None:
        """Drop the pool (killing its workers with ``kill``); the next
        ``submit`` builds a fresh one."""
        from repro.parallel import executor

        with executor._lock:
            executor._discard_pool(kill=kill)
