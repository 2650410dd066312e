"""Shared fixtures for the test suite."""

from __future__ import annotations

import os

import pytest

from repro.traces.trace import Trace, TraceBuilder
from repro.traces.types import BranchType

try:
    from hypothesis import HealthCheck, settings

    # CI runs on a shared, noisy 3.9/3.11/3.12 matrix: kill the wall-clock
    # deadline (a slow runner must not flake a correct property) and
    # derandomize so every leg checks the same examples — a red matrix
    # cell always means the code, never the seed.
    settings.register_profile(
        "ci", deadline=None, derandomize=True,
        suppress_health_check=[HealthCheck.too_slow])
    settings.register_profile("dev", deadline=None)
    settings.load_profile("ci" if os.environ.get("CI") else "dev")
except ImportError:  # pragma: no cover - hypothesis is a dev extra
    pass


@pytest.fixture(scope="session", autouse=True)
def _session_cache_dir(tmp_path_factory):
    """Point every cache at a session temp directory, so no test reads
    or writes the user's cache root; a test that moves
    ``REPRO_CACHE_DIR`` itself still does."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setenv("REPRO_CACHE_DIR", str(tmp_path_factory.mktemp("cache")))
        yield


def pytest_addoption(parser):
    parser.addoption(
        "--update-golden", action="store_true", default=False,
        help="regenerate the golden-MPKI fixtures in "
             "tests/integration/golden_mpki.json instead of asserting "
             "against them")


@pytest.fixture
def update_golden(request):
    return request.config.getoption("--update-golden")


@pytest.fixture
def pattern_trace() -> Trace:
    """A single branch cycling through a period-5 pattern."""
    builder = TraceBuilder("pattern5")
    pattern = [True, True, True, False, False]
    for i in range(4000):
        builder.append(0x1000, BranchType.COND, pattern[i % 5], 0x1008, 2)
    return builder.build()


@pytest.fixture
def mixed_trace() -> Trace:
    """A small trace with every branch type."""
    builder = TraceBuilder("mixed")
    for i in range(300):
        builder.append(0x1000, BranchType.COND, i % 3 != 0, 0x1008, 3)
        builder.append(0x1010, BranchType.CALL, True, 0x2000, 2)
        builder.append(0x2004, BranchType.COND, i % 2 == 0, 0x200C, 4)
        builder.append(0x2010, BranchType.RET, True, 0x1014, 2)
        builder.append(0x1020, BranchType.JUMP, True, 0x1040, 3)
        if i % 4 == 0:
            builder.append(0x1044, BranchType.IND_CALL, True, 0x3000, 2)
            builder.append(0x3008, BranchType.RET, True, 0x1048, 2)
    return builder.build()


@pytest.fixture
def tiny_workload_trace() -> Trace:
    """A real (but small) generated workload trace."""
    from repro.workloads.builder import WorkloadSpec, build_program
    from repro.workloads.generator import generate_trace

    spec = WorkloadSpec(
        name="tiny", seed=7,
        num_handlers=3, num_services=6, num_leaves=12,
        num_complex=6,
    )
    program = build_program(spec)
    return generate_trace(program, 60_000, seed=7, name="tiny")


@pytest.fixture
def fresh_cache(tmp_path, monkeypatch):
    """Return ``move()``: point every cache at a new empty directory and
    drop the in-memory results, so whatever runs next must simulate.

    ``move()`` returns the new ``results`` directory; a test asserts
    that each result it compares was written there, i.e. simulated
    after the move rather than read back from an earlier run.
    """
    from repro.experiments.runner import clear_memory_cache

    moves = []

    def move():
        root = tmp_path / f"fresh-{len(moves)}"
        moves.append(root)
        monkeypatch.setenv("REPRO_CACHE_DIR", str(root))
        clear_memory_cache()
        return root / "results"

    yield move
    clear_memory_cache()


@pytest.fixture
def isolated_caches(tmp_path, monkeypatch):
    """Point trace/result caches at a temp dir and shrink budgets."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    monkeypatch.setenv("REPRO_INSTRUCTIONS", "60000")
    monkeypatch.setenv("REPRO_WORKLOADS", "Kafka")
    from repro.experiments.runner import clear_memory_cache

    clear_memory_cache()
    yield tmp_path
    clear_memory_cache()
