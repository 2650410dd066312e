"""Benchmark harness configuration.

Each benchmark regenerates one of the paper's tables or figures, prints
its rows next to the paper's reported numbers, and asserts the *shape* —
who wins, by roughly what factor — rather than absolute values (the
substrate is a synthetic-workload simulator, not the authors' testbed;
see DESIGN.md §1 and EXPERIMENTS.md).

Environment knobs: REPRO_WORKLOADS (default: 6-workload subset; ``all``
for the full suite), REPRO_INSTRUCTIONS (default 800000).  Simulation
results are cached on disk, so re-runs are cheap.
"""

from __future__ import annotations

import pytest


@pytest.fixture(scope="session", autouse=True)
def prewarm_result_cache():
    """Simulate every figure's and ablation's grid before benchmarks run.

    One ``run_jobs`` batch fills the result cache, in parallel on a
    multi-core machine (REPRO_JOBS) and in this process on one core,
    checking every cached result against the checkpoint journal; the
    per-figure benchmarks, which call the serial ``get_result`` path,
    then become cache hits.
    """
    from benchmarks import test_ablations
    from repro import parallel
    from repro.experiments import (
        fig01, fig02, fig03, fig05, fig09, fig10, fig11, fig12, fig13,
        fig14, fig15,
    )

    pairs = []
    for module in (fig01, fig02, fig03, fig05, fig09, fig10, fig11,
                   fig12, fig13, fig14, fig15, test_ablations):
        pairs.extend(module.jobs())
    parallel.run_jobs(parallel.make_jobs(pairs))


@pytest.fixture
def report(pytestconfig):
    """Print an experiment table past pytest's output capture.

    pytest captures file descriptors by default, so a plain ``print``
    would be swallowed unless ``-s`` is given; the capture manager's
    disable context routes the tables to the real stdout either way.
    """
    capman = pytestconfig.pluginmanager.getplugin("capturemanager")

    def print_experiment(title: str, paper: str, body: str) -> None:
        bar = "=" * 78
        text = f"\n{bar}\n{title}\n  paper: {paper}\n{bar}\n{body}"
        if capman is not None:
            with capman.global_and_fixture_disabled():
                print(text, flush=True)
        else:  # pragma: no cover - capture plugin always present
            print(text, flush=True)

    return print_experiment
