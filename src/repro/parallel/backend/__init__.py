"""The executor's process pool.

:mod:`repro.parallel.backend.local` owns the pool, and
:func:`repro.parallel.executor.run_jobs` reaches it only through
:class:`~repro.parallel.backend.local.LocalBackend`.
"""
