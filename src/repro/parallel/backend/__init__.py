"""The executor's handle on its process pool.

:class:`repro.parallel.backend.local.LocalBackend` is the one place
:func:`repro.parallel.executor.run_jobs` submits a batched task to the
module-global ``ProcessPoolExecutor`` and rebuilds that pool after a
worker death or a deadline expiry.
"""
