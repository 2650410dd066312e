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
"""

__version__ = "1.0.0"

__all__ = ["__version__"]
