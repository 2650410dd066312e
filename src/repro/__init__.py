"""repro: a pure-Python reproduction of "The Last-Level Branch Predictor".

Subpackages:

* :mod:`repro.common`     — folded-history, RNG and statistics primitives.
* :mod:`repro.traces`     — branch-trace model, container, I/O, statistics.
* :mod:`repro.workloads`  — synthetic server-workload generator + catalog.
* :mod:`repro.predictors` — bimodal/gshare/TAGE/SC/loop/TAGE-SC-L and the
  infinite-capacity limit configurations.
* :mod:`repro.llbp`       — the Last-Level Branch Predictor itself.
* :mod:`repro.sim`        — trace-driven engine, timing core model, L1-I.
* :mod:`repro.energy`     — CACTI-like latency/energy model.
* :mod:`repro.analysis`   — working-set / context-locality / breakdown studies.
* :mod:`repro.experiments`— one module per paper table/figure.

Quickstart::

    from repro.workloads import generate_workload
    from repro.predictors import tsl_64k
    from repro.llbp import LLBPConfig, LLBPTageScL
    from repro.sim import run_simulation

    trace = generate_workload("NodeApp", 600_000)
    baseline = run_simulation(trace, tsl_64k())
    llbp = run_simulation(trace, LLBPTageScL(LLBPConfig()))
    print(baseline.mpki, llbp.mpki)

Importing the package sets ``OPENBLAS_NUM_THREADS=1`` unless it is
already set (see below).
"""

import os

# numpy's OpenBLAS starts a thread for each core beyond the first when
# numpy is imported, and each spins for about 0.1 s of CPU.  Nothing here
# calls BLAS: the numpy work is integer masks, shifts, cumsum, unique and
# bincount.  Importing any repro module runs this file first, so it is
# the one place sure to run before the package loads numpy.  A value
# the user has set wins; child processes inherit the variable.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

__version__ = "1.0.0"

__all__ = ["__version__"]
