"""Where the executor's task attempts run.

:mod:`repro.parallel.backend.local` starts one child process per task
attempt, and :func:`repro.parallel.executor.run_jobs` reaches children
only through :class:`~repro.parallel.backend.local.LocalBackend`.
"""
