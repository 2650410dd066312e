"""Per-layer metrics from the spans of one traced launch.

A layer is a module of ``repro``; each span belongs to the layer whose
public function it timed (see ``launch.install_tracing``).  A span's
self time is its duration minus the part of it that its child spans
cover.  A pool worker's task span counts as a child of the ``run_jobs``
span that submitted it, so ``parallel.self_s`` is the batch time during
which no worker was running a task.  Self times are summed over every
process of the run, pool workers included, so they add up to more than
the wall time when workers overlap.
"""

from __future__ import annotations

import json
from collections import defaultdict
from pathlib import Path
from typing import Dict, List, Tuple

#: (metric, unit) in report order; every traced run reports all of them.
METRICS: Tuple[Tuple[str, str], ...] = (
    ("workloads.self_s", "s"),
    ("workloads.records_per_s", "records/s"),
    ("workloads.calls", "count"),
    ("traces.store.write_s", "s"),
    ("traces.store.write_bytes", "B"),
    ("traces.store.aux_write_s", "s"),
    ("traces.store.aux_write_bytes", "B"),
    ("traces.store.read_s", "s"),
    ("traces.store.read_bytes", "B"),
    ("traces.store.hit_ratio", "ratio"),
    ("traces.store.calls", "count"),
    ("sim.columns.self_s", "s"),
    ("sim.columns.rows_per_s", "rows/s"),
    ("sim.columns.reuse_ratio", "ratio"),
    ("sim.columns.calls", "count"),
    ("sim.self_s", "s"),
    ("sim.steps", "count"),
    ("sim.steps_per_s", "steps/s"),
    ("sim.calls", "count"),
    ("predictors.self_s", "s"),
    ("predictors.calls", "count"),
    ("experiments.runner.self_s", "s"),
    ("experiments.runner.result_bytes", "B"),
    ("experiments.runner.calls", "count"),
    ("experiments.journal.self_s", "s"),
    ("experiments.journal.calls", "count"),
    ("parallel.self_s", "s"),
    ("parallel.ipc_s", "s"),
    ("parallel.busy_ratio", "ratio"),
    ("parallel.calls", "count"),
    ("analysis.self_s", "s"),
    ("analysis.records_per_s", "records/s"),
    ("analysis.calls", "count"),
    ("trace.wall_s", "s"),
    ("trace.overhead_s", "s"),
)

LAYERS = ("workloads", "traces.store", "sim.columns", "sim", "predictors",
          "experiments.runner", "experiments.journal", "parallel", "analysis")


def load_spans(directory: Path) -> List[dict]:
    spans = []
    for path in sorted(directory.glob("spans-*.jsonl")):
        with open(path) as fh:
            spans.extend(json.loads(line) for line in fh if line.strip())
    return spans


def _duration(span: dict) -> float:
    return span["end"] - span["start"]


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def link_worker_tasks(spans: List[dict], main_pid: int) -> None:
    """Parent each pool worker's task span to the batch that submitted it.

    A worker cannot see the parent's span ids, so the link is made here:
    the latest submit of the same job id that started before the task.
    The task also keeps that submit span, for the IPC accounting.
    """
    submits = defaultdict(list)
    for span in spans:
        if span["name"] == "LocalBackend.submit":
            submits[span["job"]].append(span)
    for span in spans:
        if span["name"] != "task" or span["pid"] == main_pid:
            continue
        earlier = [s for s in submits[span["job"]]
                   if s["start"] <= span["start"]]
        if earlier:
            submit = max(earlier, key=lambda s: s["start"])
            span["parent"] = submit["parent"]
            span["submit"] = submit


def children_of(spans: List[dict]) -> Dict[str, List[dict]]:
    children = defaultdict(list)
    for span in spans:
        if span["parent"] is not None:
            children[span["parent"]].append(span)
    return children


def self_times(spans: List[dict],
               children: Dict[str, List[dict]]) -> Dict[str, float]:
    """Span id -> duration minus the union of its children's intervals."""
    result = {}
    for span in spans:
        start, end = span["start"], span["end"]
        covered, reach = 0.0, start
        for lo, hi in sorted((max(c["start"], start), min(c["end"], end))
                             for c in children[span["id"]]):
            lo = max(lo, reach)
            if hi > lo:
                covered += hi - lo
                reach = hi
        result[span["id"]] = (end - start) - covered
    return result


def layer_metrics(spans: List[dict], main_pid: int,
                  result_bytes: int) -> Dict[str, float]:
    """The per-layer metrics of :data:`METRICS` (not the ``trace.*``
    pair, which compares launches) and each layer's ``self_s``."""
    spans = [span for span in spans if span["end"] is not None]
    link_worker_tasks(spans, main_pid)
    children = children_of(spans)
    own = self_times(spans, children)
    by_id = {span["id"]: span for span in spans}

    def named(name):
        return [span for span in spans if span["name"] == name]

    def self_of(group):
        return sum(own[span["id"]] for span in group)

    out: Dict[str, float] = {}
    for layer in LAYERS:
        group = [span for span in spans if span["layer"] == layer]
        out[f"{layer}.calls"] = len(group)
        out[f"{layer}.self_s"] = self_of(group)

    generated = [
        span for span in named("generate_workload")
        if not any(child["name"] == "TraceStore.load" and child.get("hit")
                   for child in children[span["id"]])]
    out["workloads.records_per_s"] = _ratio(
        sum(span.get("items", 0) for span in generated), self_of(generated))

    loads = named("TraceStore.load")
    hits = [span for span in loads if span.get("hit")]
    writes = named("TraceStore.store")
    aux = named("append_aux")
    out["traces.store.write_s"] = self_of(writes)
    out["traces.store.write_bytes"] = sum(s.get("bytes", 0) for s in writes)
    out["traces.store.aux_write_s"] = self_of(aux)
    out["traces.store.aux_write_bytes"] = sum(s.get("bytes", 0) for s in aux)
    out["traces.store.read_s"] = self_of(loads)
    out["traces.store.read_bytes"] = sum(s.get("bytes", 0) for s in hits)
    out["traces.store.hit_ratio"] = _ratio(len(hits), len(loads))

    columns = [span for span in spans if span["layer"] == "sim.columns"]
    computed = [span for span in columns if not span.get("reused")]
    out["sim.columns.rows_per_s"] = _ratio(
        sum(span.get("items", 0) for span in computed), self_of(computed))
    out["sim.columns.reuse_ratio"] = _ratio(
        len(columns) - len(computed), len(columns))

    outermost = [
        span for span in spans if span["layer"] == "sim"
        and (span["parent"] not in by_id
             or by_id[span["parent"]]["layer"] != "sim")]
    out["sim.steps"] = sum(span.get("items", 0) for span in outermost)
    out["sim.steps_per_s"] = _ratio(out["sim.steps"], out["sim.self_s"])

    out["experiments.runner.result_bytes"] = result_bytes

    tasks = [span for span in named("task") if "submit" in span]
    out["parallel.ipc_s"] = sum(
        span["submit"]["done"] - span["submit"]["start"] - _duration(span)
        for span in tasks if "done" in span["submit"])
    capacity = 0.0
    for batch in named("run_jobs"):
        workers = [child.get("workers") or 0
                   for child in children[batch["id"]]
                   if child["name"] == "LocalBackend.submit"]
        if workers:
            capacity += max(workers) * _duration(batch)
    out["parallel.busy_ratio"] = _ratio(
        sum(_duration(span) for span in tasks), capacity)

    characterized = named("characterize_trace")
    out["analysis.records_per_s"] = _ratio(
        sum(span.get("items", 0) for span in characterized),
        self_of(characterized))
    return out
