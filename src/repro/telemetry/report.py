"""Turn a telemetry event stream into a run report.

The summary side of ``repro.telemetry``: given the timestamp-ordered
stream :func:`repro.telemetry.load_events` reads back from a run's
per-process ``events-*.jsonl`` files, :func:`summarize` reduces it to
the aggregate numbers a human or CI gate cares about — simulation
time, result/trace cache hit rates, parallel worker utilization, LLBP
structure counters, per-figure wall clock — and
:func:`format_summary` renders that as text.  ``scripts/report.py`` is
the command-line wrapper; the machine-readable form is what CI uploads
as ``telemetry_summary.json``.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict, List, Optional, Union

Event = Dict[str, Any]


def _rate(hits: int, total: int) -> Optional[float]:
    if total <= 0:
        return None
    return round(hits / total, 4)


def _sum(events: List[Event], field: str) -> int:
    return sum(int(e.get(field, 0)) for e in events)


def _summarize_simulation(events: List[Event]) -> Dict[str, Any]:
    runs = [e for e in events if e["event"] == "sim.run"]
    return {
        "runs": len(runs),
        "seconds": round(sum(float(e.get("seconds", 0.0)) for e in runs), 4),
        "mispredictions": _sum(runs, "mispredictions"),
    }


def _job(event: Event) -> tuple:
    return event.get("workload"), event.get("key"), event.get("instructions")


def _summarize_caches(events: List[Event]) -> Dict[str, Any]:
    result = [e for e in events if e["event"] == "runner.result"]
    # A batched miss repeats its whole batch's seconds on every key it
    # served; each key takes its share, so the batch counts once.
    simulated = [e for e in result
                 if e.get("source") in ("simulated", "batched")]
    # One verdict per job (workload, key, instructions), however many
    # lookups it took: a job simulated in this run is a miss, any other
    # is a hit from wherever it was first served.  A figure reading back
    # what the prewarm just computed is not a second job.
    first_source: Dict[tuple, Any] = {}
    for e in result:
        first_source.setdefault(_job(e), e.get("source"))
    missed = {_job(e) for e in simulated}
    hits = [source for job, source in first_source.items()
            if job not in missed]
    memory = hits.count("memory")
    disk = hits.count("disk")
    trace = [e for e in events if e["event"] == "trace.cache"]
    trace_hits = sum(1 for e in trace if e.get("hit"))
    return {
        "result": {
            "memory_hits": memory,
            "disk_hits": disk,
            "misses": len(missed),
            "hit_rate": _rate(memory + disk, len(first_source)),
            "simulation_seconds": round(
                sum(float(e.get("seconds", 0.0)) / int(e.get("batched", 1))
                    for e in simulated), 4),
        },
        "trace": {
            "hits": trace_hits,
            "misses": len(trace) - trace_hits,
            "hit_rate": _rate(trace_hits, len(trace)),
            "generation_seconds": round(
                sum(float(e.get("seconds", 0.0)) for e in trace
                    if not e.get("hit")), 4),
        },
    }


def _summarize_parallel(events: List[Event]) -> Dict[str, Any]:
    batches = [e for e in events if e["event"] == "parallel.run_jobs"]
    jobs = [e for e in events if e["event"] == "parallel.job"]
    workers: Dict[str, Dict[str, Any]] = {}
    for e in jobs:
        w = workers.setdefault(str(e.get("pid")), {"jobs": 0,
                                                   "busy_seconds": 0.0})
        # A batched shared-trace task emits one event for N jobs and
        # carries the member count; account for every job it served.
        w["jobs"] += int(e.get("batched", 1))
        w["busy_seconds"] += float(e.get("seconds", 0.0))
    for w in workers.values():
        w["busy_seconds"] = round(w["busy_seconds"], 4)
    # Utilization: worker busy time over the batches' capacity (workers x
    # batch wall clock).
    capacity = sum(int(e.get("workers", 0)) * float(e.get("seconds", 0.0))
                   for e in batches)
    busy = sum(w["busy_seconds"] for w in workers.values())
    return {
        "batches": len(batches),
        "jobs_requested": _sum(batches, "requested"),
        "jobs_unique": _sum(batches, "unique"),
        "cache_hits": _sum(batches, "cache_hits"),
        "dispatched": _sum(batches, "dispatched"),
        "batch_seconds": round(
            sum(float(e.get("seconds", 0.0)) for e in batches), 4),
        "workers": workers,
        "worker_utilization": (round(busy / capacity, 4)
                               if capacity > 0 else None),
    }


def _summarize_llbp(events: List[Event]) -> Dict[str, Any]:
    counters = [e for e in events if e["event"] == "llbp.counters"]
    if not counters:
        return {"runs": 0}
    hits = _sum(counters, "pb_hits")
    misses = _sum(counters, "pb_misses")
    issued = _sum(counters, "prefetch_issued")
    delivered = _sum(counters, "prefetch_delivered")
    return {
        "runs": len(counters),
        "pb_hits": hits,
        "pb_misses": misses,
        "pb_hit_rate": _rate(hits, hits + misses),
        "prefetch_issued": issued,
        "prefetch_delivered": delivered,
        "prefetch_squashed": _sum(counters, "prefetch_squashed"),
        "prefetch_timeliness": _rate(delivered, issued),
        "pattern_fills": _sum(counters, "fills"),
        "pattern_writebacks": _sum(counters, "writebacks"),
    }


def _summarize_robustness(events: List[Event]) -> Dict[str, Any]:
    """Fault-tolerance accounting: retries by kind, timeouts, resume.

    A clean run reports all-zero counts; anything non-zero is the
    executor's recovery machinery at work (or the fault-injection hook
    in a chaos run), and :func:`format_summary` surfaces it.
    """
    retries = [e for e in events if e["event"] == "parallel.retry"]
    errors: Dict[str, int] = {}
    for e in retries:
        kind = str(e.get("error", "?"))
        errors[kind] = errors.get(kind, 0) + 1
    resumes = [e for e in events if e["event"] == "experiment.resume"]
    return {
        "retries": len(retries),
        "retry_errors": errors,
        "backoff_seconds": round(
            sum(float(e.get("delay", 0.0)) for e in retries), 4),
        "timeouts": len([e for e in events
                         if e["event"] == "parallel.timeout"]),
        "degraded_to_serial": len([e for e in events
                                   if e["event"] == "parallel.degraded"]),
        "exhausted": len([e for e in events
                          if e["event"] == "parallel.exhausted"]),
        "faults_injected": len([e for e in events
                                if e["event"] == "parallel.fault"]),
        "cache_corrupt": len([e for e in events
                              if e["event"] == "parallel.cache_corrupt"]),
        "interrupted": len([e for e in events
                            if e["event"] == "experiment.interrupted"]),
        "resume": ({"journaled": int(resumes[-1].get("journaled", 0)),
                    "total": int(resumes[-1].get("total", 0))}
                   if resumes else None),
    }


def _summarize_figures(events: List[Event]) -> Dict[str, float]:
    return {e["name"]: round(float(e.get("seconds", 0.0)), 4)
            for e in events if e["event"] == "experiment.figure" and "name" in e}


def summarize(events: List[Event]) -> Dict[str, Any]:
    """Reduce an event stream to the aggregate report dictionary."""
    timestamps = [float(e["ts"]) for e in events if "ts" in e]
    return {
        "events": len(events),
        "processes": len({e.get("pid") for e in events}),
        "wall_seconds": (round(max(timestamps) - min(timestamps), 4)
                         if timestamps else 0.0),
        "simulation": _summarize_simulation(events),
        "caches": _summarize_caches(events),
        "parallel": _summarize_parallel(events),
        "robustness": _summarize_robustness(events),
        "llbp": _summarize_llbp(events),
        "figures": _summarize_figures(events),
    }


def _pct(value: Optional[float]) -> str:
    return "n/a" if value is None else f"{100.0 * value:.1f}%"


def format_summary(summary: Dict[str, Any]) -> str:
    """Render :func:`summarize` output as a human-readable report."""
    lines: List[str] = []
    lines.append(f"telemetry: {summary['events']} events from "
                 f"{summary['processes']} process(es), "
                 f"{summary['wall_seconds']:.1f}s wall clock")

    sim = summary["simulation"]
    if sim["runs"]:
        lines.append(f"\nsimulation — {sim['runs']} run(s), "
                     f"{sim['seconds']:.2f}s, "
                     f"{sim['mispredictions']:,} mispredictions")

    caches = summary["caches"]
    result, trace = caches["result"], caches["trace"]
    if result["memory_hits"] or result["disk_hits"] or result["misses"]:
        lines.append(f"\nresult cache — hit rate {_pct(result['hit_rate'])} "
                     f"(memory {result['memory_hits']}, "
                     f"disk {result['disk_hits']}, "
                     f"simulated {result['misses']} in "
                     f"{result['simulation_seconds']:.2f}s)")
    if trace["hits"] or trace["misses"]:
        lines.append(f"trace cache — hit rate {_pct(trace['hit_rate'])} "
                     f"({trace['hits']} hits, {trace['misses']} generated in "
                     f"{trace['generation_seconds']:.2f}s)")

    par = summary["parallel"]
    if par["batches"]:
        lines.append(f"\nparallel — {par['batches']} batch(es): "
                     f"{par['jobs_requested']} jobs, "
                     f"{par['jobs_unique']} unique, "
                     f"{par['cache_hits']} cached, "
                     f"{par['dispatched']} dispatched in "
                     f"{par['batch_seconds']:.2f}s")
        lines.append(f"  worker utilization "
                     f"{_pct(par['worker_utilization'])}")
        for pid, w in sorted(par["workers"].items()):
            lines.append(f"  worker {pid:<8} {w['jobs']:>4} job(s)  "
                         f"{w['busy_seconds']:>8.2f}s busy")

    robust = summary.get("robustness", {})
    eventful = any(robust.get(k) for k in
                   ("retries", "timeouts", "degraded_to_serial", "exhausted",
                    "faults_injected", "cache_corrupt", "interrupted")
                   ) or robust.get("resume")
    if eventful:
        kinds = ", ".join(f"{kind} x{count}" for kind, count
                          in sorted(robust["retry_errors"].items()))
        lines.append(f"\nrobustness — {robust['retries']} retr"
                     f"{'y' if robust['retries'] == 1 else 'ies'}"
                     f"{f' ({kinds})' if kinds else ''}, "
                     f"{robust['backoff_seconds']:.2f}s backing off; "
                     f"{robust['timeouts']} timeout(s)")
        if robust["faults_injected"]:
            lines.append(f"  {robust['faults_injected']} fault(s) injected "
                         f"(REPRO_FAULTS chaos hook)")
        if robust["cache_corrupt"]:
            lines.append(f"  {robust['cache_corrupt']} corrupt cache "
                         f"entr{'y' if robust['cache_corrupt'] == 1 else 'ies'}"
                         f" detected and re-run")
        if robust["degraded_to_serial"]:
            lines.append("  no child process could be started — "
                         "finished in-process")
        if robust["exhausted"]:
            lines.append(f"  {robust['exhausted']} job(s) failed after "
                         f"exhausting retries")
        if robust["interrupted"]:
            lines.append("  run interrupted (Ctrl-C) — rerun the same "
                         "command to resume")
        if robust["resume"]:
            res = robust["resume"]
            lines.append(f"  resumed: {res['journaled']}/{res['total']} "
                         f"simulations already journalled")

    llbp = summary["llbp"]
    if llbp.get("runs"):
        lines.append(f"\nllbp — pattern-buffer hit rate "
                     f"{_pct(llbp['pb_hit_rate'])} "
                     f"({llbp['pb_hits']:,} hits / {llbp['pb_misses']:,} "
                     f"misses), prefetch timeliness "
                     f"{_pct(llbp['prefetch_timeliness'])} "
                     f"({llbp['prefetch_delivered']:,} delivered / "
                     f"{llbp['prefetch_issued']:,} issued, "
                     f"{llbp['prefetch_squashed']:,} squashed)")

    figures = summary["figures"]
    if figures:
        lines.append("\nfigures:")
        for name, seconds in figures.items():
            lines.append(f"  {name:<8} {seconds:>8.2f}s")

    return "\n".join(lines)


def write_summary(summary: Dict[str, Any], path: Union[str, Path]) -> None:
    """Write the machine-readable summary JSON (for CI artifacts/diffs)."""
    Path(path).write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n")
