"""The 14-workload catalog (paper Table I) and trace caching.

Each entry parameterises the synthetic server-program model to echo the
qualitative character of the corresponding paper workload: the Java server
suites get large branch working sets, the Google production traces
(Charlie/Delta/Merced/Whiskey) get the largest working sets and the most
complex branches, NodeApp gets strong context locality (it shows the
largest LLBP gain in the paper), Kafka is the easy outlier with the lowest
MPKI, and PHPWiki leans on indirect dispatch (its pipeline resets hurt
LLBP prefetching most in the paper).

Traces are deterministic in (spec, instruction budget) and cached on disk
so the benchmark harness can share generation work across figures.
"""

from __future__ import annotations

import time
from pathlib import Path
from typing import Dict, List, Optional

from repro import telemetry
from repro.traces import store
from repro.traces.trace import Trace
from repro.workloads import adversarial
from repro.workloads.adversarial import AdversarialSpec
from repro.workloads.builder import WorkloadSpec, build_program
from repro.workloads.generator import generate_trace

#: Default instruction budget per workload trace.  The paper simulates
#: 200M instructions; shapes stabilise far earlier with the proportionally
#: scaled synthetic working sets (DESIGN.md §1).
DEFAULT_INSTRUCTIONS = 2_000_000

WORKLOADS: Dict[str, WorkloadSpec] = {}


def _register(spec: WorkloadSpec) -> None:
    if spec.name in WORKLOADS:
        raise ValueError(f"duplicate workload {spec.name!r}")
    WORKLOADS[spec.name] = spec


_register(WorkloadSpec(
    name="NodeApp", seed=101,
    num_handlers=10, num_services=36, num_leaves=250,
    num_complex=150, complex_local_bits=2, complex_noise=0.01,
    indirect_fraction=0.20, dispatch_skew=0.7,
    description="NodeJS online shop; strong context locality, biggest LLBP win",
))
_register(WorkloadSpec(
    name="PHPWiki", seed=102,
    num_handlers=14, num_services=44, num_leaves=160,
    num_complex=210, complex_noise=0.03,
    indirect_fraction=0.45, call_fanout=5, dispatch_skew=0.5,
    description="PHP MediaWiki; heavy indirect dispatch resets prefetching",
))
_register(WorkloadSpec(
    name="TPCC", seed=103,
    num_handlers=8, num_services=40, num_leaves=140,
    num_complex=100, loop_probability=0.14, loop_spread=6,
    description="OLTP transactions; loopy with moderate working set",
))
_register(WorkloadSpec(
    name="Twitter", seed=104,
    num_handlers=12, num_services=48, num_leaves=250,
    num_complex=110, global_noise=0.025,
    description="BenchBase Twitter; moderate working set",
))
_register(WorkloadSpec(
    name="Wikipedia", seed=105,
    num_handlers=12, num_services=52, num_leaves=160,
    num_complex=210, behavior_weights={"biased": 60, "local": 2, "global": 33, "random": 5},
    description="BenchBase Wikipedia; slightly noisier mix",
))
_register(WorkloadSpec(
    name="Kafka", seed=106,
    num_handlers=6, num_services=24, num_leaves=80,
    num_complex=40, complex_noise=0.01,
    behavior_weights={"biased": 74, "local": 2, "global": 23, "random": 1},
    description="DaCapo Kafka; small working set, lowest MPKI",
))
_register(WorkloadSpec(
    name="Spring", seed=107,
    num_handlers=16, num_services=60, num_leaves=250,
    num_complex=210, min_stmts=9, max_stmts=20,
    description="DaCapo Spring; deep framework call chains",
))
_register(WorkloadSpec(
    name="Tomcat", seed=108,
    num_handlers=18, num_services=70, num_leaves=220,
    num_complex=180, min_stmts=9, max_stmts=20,
    description="DaCapo Tomcat; largest Java working set (paper's Fig 3 subject)",
))
_register(WorkloadSpec(
    name="Chirper", seed=109,
    num_handlers=10, num_services=40, num_leaves=130,
    num_complex=100,
    description="Renaissance finagle-chirper",
))
_register(WorkloadSpec(
    name="HTTP", seed=110,
    num_handlers=10, num_services=36, num_leaves=120,
    num_complex=90, behavior_weights={"biased": 64, "local": 2, "global": 31, "random": 3},
    description="Renaissance finagle-http",
))
_register(WorkloadSpec(
    name="Charlie", seed=111,
    num_handlers=20, num_services=80, num_leaves=250,
    num_complex=220, complex_local_bits=3, min_stmts=10, max_stmts=22,
    description="Google production trace; very large working set",
))
_register(WorkloadSpec(
    name="Delta", seed=112,
    num_handlers=18, num_services=72, num_leaves=240,
    num_complex=190, global_noise=0.03, min_stmts=10, max_stmts=22,
    description="Google production trace",
))
_register(WorkloadSpec(
    name="Merced", seed=113,
    num_handlers=16, num_services=70, num_leaves=220,
    num_complex=210, complex_local_bits=2, complex_noise=0.015,
    description="Google production trace; second-biggest LLBP win in the paper",
))
_register(WorkloadSpec(
    name="Whiskey", seed=114,
    num_handlers=20, num_services=84, num_leaves=260,
    num_complex=200, behavior_weights={"biased": 56, "local": 2, "global": 36, "random": 6},
    min_stmts=10, max_stmts=22,
    description="Google production trace; highest MPKI",
))


def workload_names() -> List[str]:
    """All workload names in the paper's presentation order."""
    return list(WORKLOADS.keys())


def get_spec(name: str):
    """The spec behind ``name``: a catalog :class:`WorkloadSpec` or, for
    ``adv:`` names, a parsed :class:`AdversarialSpec` (both carry the
    ``name``/``seed``/``description`` the runner and workers rely on)."""
    if adversarial.is_adversarial(name):
        return adversarial.parse_adv_name(name)
    try:
        return WORKLOADS[name]
    except KeyError:
        raise KeyError(
            f"unknown workload {name!r}; known: {', '.join(WORKLOADS)} "
            f"(plus generated {adversarial.ADV_PREFIX}* stressors)"
        ) from None


def generate_workload(
    name: str,
    instructions: int = DEFAULT_INSTRUCTIONS,
    use_cache: bool = True,
    cache_dir: Optional[Path] = None,
) -> Trace:
    """Generate (or load from cache) the trace for workload ``name``.

    The cache backend is the packed-binary store (:mod:`repro.traces.store`)
    — content-addressed, checksum-verified, memory-mapped on load so
    concurrent workers share pages.  A corrupt cache entry is treated as
    a miss and regenerated, never trusted.
    """
    spec = get_spec(name)
    if isinstance(spec, AdversarialSpec):
        # One canonical spelling per stressor keeps one cache entry.
        name = spec.name
    trace_store = None
    if use_cache:
        directory = cache_dir if cache_dir is not None else store.cache_root()
        trace_store = store.TraceStore(directory / "traces")
        cached = trace_store.load(name, spec.seed, instructions)
        if cached is not None:
            telemetry.emit("trace.cache", workload=name,
                           instructions=instructions, hit=True)
            return cached
    start = time.perf_counter() if telemetry.enabled() else 0.0
    if isinstance(spec, AdversarialSpec):
        trace = adversarial.generate_adversarial(spec, instructions)
    else:
        program = build_program(spec)
        trace = generate_trace(program, instructions, seed=spec.seed, name=name)
    telemetry.emit("trace.cache", workload=name, instructions=instructions,
                   hit=False, seconds=time.perf_counter() - start)
    if trace_store is not None:
        trace_store.store(trace, name, spec.seed, instructions)
    return trace
