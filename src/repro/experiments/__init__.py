"""Experiment harness: one module per paper table/figure.

Every module exposes a ``run(...)`` function returning structured rows
(lists of dicts) plus a ``format_rows`` helper; the benchmark suite under
``benchmarks/`` invokes these and prints the same rows the paper reports.
Simulation results are cached on disk (keyed by workload, instruction
budget, predictor configuration and a results version) so figures sharing
configurations — e.g. the 64K TSL baseline — pay for them once.

Environment knobs (all optional):

* ``REPRO_INSTRUCTIONS`` — instruction budget per trace (default 800000).
* ``REPRO_WORKLOADS``    — comma-separated catalog or ``adv:`` names,
  ``all`` or ``adv`` (parsed by
  :func:`repro.workloads.catalog.parse_workloads`; default: a
  6-workload representative subset).
* ``REPRO_CACHE_DIR``    — cache directory (traces, results, journal);
  point it at an empty directory to start from a cold cache.
"""

from repro.experiments.common import (
    experiment_workloads,
    experiment_instructions,
    format_table,
)
from repro.experiments.runner import get_result, clear_memory_cache

__all__ = [
    "experiment_workloads",
    "experiment_instructions",
    "format_table",
    "get_result",
    "clear_memory_cache",
]
