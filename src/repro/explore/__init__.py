"""Guided design-space exploration over registry predictor keys.

The paper evaluates one LLBP geometry; this package searches around it.
A declarative :mod:`~repro.explore.space` expands to canonical registry
keys, :mod:`~repro.explore.cost` prices each key's storage,
:mod:`~repro.explore.search` runs a successive-halving bandit over the
parallel executor (short traces for everyone, full-length runs for
the survivors), and :mod:`~repro.explore.pareto` extracts the
storage/MPKI Pareto front with per-workload winner attribution as a
deterministic JSON artifact.  ``python -m repro.explore`` is the CLI;
the ``smoke`` budget reproduces ``tests/explore/golden_frontier.json``
byte-identically on any engine, at any ``--jobs``.
"""

from repro.explore.cost import INFINITE_KEYS, storage_cost_bits, storage_kib
from repro.explore.pareto import (
    build_artifact,
    pareto_front,
    render_artifact,
    render_frontier_table,
    workload_winners,
)
from repro.explore.search import (
    Evaluation,
    Rung,
    SearchOutcome,
    halving_schedule,
    mpki,
    promote,
    run_search,
    schedule_cost,
    shuffled,
)
from repro.explore.space import (
    SPACES,
    TEMPLATES,
    SearchSpace,
    Template,
    resolve_space,
)

__all__ = [
    "Evaluation",
    "INFINITE_KEYS",
    "Rung",
    "SPACES",
    "SearchOutcome",
    "SearchSpace",
    "TEMPLATES",
    "Template",
    "build_artifact",
    "halving_schedule",
    "mpki",
    "pareto_front",
    "promote",
    "render_artifact",
    "render_frontier_table",
    "resolve_space",
    "run_search",
    "schedule_cost",
    "shuffled",
    "storage_cost_bits",
    "storage_kib",
    "workload_winners",
]
