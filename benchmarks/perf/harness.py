"""Engine throughput harness: branches/sec per predictor + figure wall-clock.

Run from the repo root::

    PYTHONPATH=src python benchmarks/perf/harness.py            # full, updates BENCH_engine.json
    PYTHONPATH=src python benchmarks/perf/harness.py --quick    # subset, prints only

Two measurements feed the perf trajectory file ``BENCH_engine.json``:

* ``branches_per_sec`` — best-of-N wall-clock of ``run_simulation`` over a
  fixed Kafka trace, per predictor key.  ``engine-null`` drives a no-op
  predictor, so it isolates the engine loop itself; the other keys add
  each predictor family's per-branch cost on top.
* ``fig09_seconds`` — end-to-end ``fig09.run()`` with a cold result cache
  (traces pre-generated off the clock), i.e. what a user waits for.

Full mode also measures the ``array_engine`` section: branches/sec for
the keys the array engine runs natively, each verified bit-identical to
the Python engine in the same invocation (``bit_identical`` records the
verdict, ``speedup_vs_python`` the ratio against ``after``).

Separate ``--sweep-only`` / ``--distributed-only`` /
``--families-only`` / ``--characterize-only`` modes measure the
batched-runner sweep, the loopback-TCP worker fleets, the
Bi-Mode/perceptron families, and the characterization pipeline
respectively, each updating only its own section of the trajectory file
(``batched_sweep`` / ``distributed_sweep`` / ``new_families`` /
``characterization``).  Full mode rewrites the sections it measures and
carries every other section over unchanged.

Best-of-N is deliberate: on shared/noisy machines the *minimum* runtime is
the least contaminated estimate of the code's true cost.  The committed
``BENCH_engine.json`` keeps the pre-optimization numbers under ``before``
so every future PR can see the trajectory; rerunning this harness rewrites
only ``after``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[2]
DEFAULT_OUTPUT = REPO_ROOT / "BENCH_engine.json"

# Measurement configuration — keep in sync with the committed baseline;
# numbers are only comparable when these match.
TRACE_NAME = "Kafka"
TRACE_INSTRUCTIONS = 400_000
FIG09_WORKLOADS = "NodeApp,PHPWiki,Kafka"
FIG09_INSTRUCTIONS = 200_000

FULL_KEYS = ("engine-null", "bimodal", "gshare", "tsl64", "llbp")
QUICK_KEYS = ("engine-null", "bimodal", "tsl64", "llbp")

#: Keys the array engine supports natively (everything else falls back
#: to the Python loop, so measuring it there would be meaningless).
ARRAY_KEYS = ("gshare", "tsl64", "llbp")

#: The scenario-diversity families (Bi-Mode, hashed perceptron) recorded
#: in the ``new_families`` section: python and array throughput plus the
#: bit-identity verdict.
NEW_FAMILY_KEYS = ("bimode", "percep")

# Batched-sweep configuration: a fig09-style grid — several workloads,
# the TAGE-SC-L baseline, both LLBP timing variants, and the scaled
# baseline — which is where the shared-trace batch engine concentrates
# its wins (fold/lookup sharing across the TAGE-family members).
SWEEP_WORKLOADS = ("NodeApp", "PHPWiki", "TPCC", "Twitter", "Kafka",
                   "Tomcat")
SWEEP_KEYS = ("tsl64", "llbp", "tsl512", "llbp:lat0")
SWEEP_INSTRUCTIONS = 200_000


def _null_predictor():
    from repro.predictors.base import BranchPredictor

    class NullPredictor(BranchPredictor):
        """All-taken no-op predictor: measures pure engine overhead."""

        name = "engine-null"

        def predict(self, pc):
            return True

        def train(self, pc, taken, meta):
            pass

        def update_history(self, pc, branch_type, taken, target):
            pass

    return NullPredictor()


def _predictor(key):
    if key == "engine-null":
        return _null_predictor()
    from repro.predictors.registry import make_predictor

    return make_predictor(key)


def measure_branches_per_sec(keys=FULL_KEYS, reps=5, trace=None):
    """Best-of-``reps`` branches/sec for each predictor key."""
    from repro.sim.engine import run_simulation
    from repro.workloads.catalog import generate_workload

    if trace is None:
        trace = generate_workload(TRACE_NAME, TRACE_INSTRUCTIONS)
    out = {}
    for key in keys:
        best = 0.0
        for _ in range(reps):
            predictor = _predictor(key)  # fresh tables every rep
            t0 = time.perf_counter()
            run_simulation(trace, predictor)
            best = max(best, len(trace) / (time.perf_counter() - t0))
        out[key] = round(best)
        print(f"  {key:<12} {out[key]:>12,} branches/sec", flush=True)
    return out


def measure_array_engine(keys=ARRAY_KEYS, reps=5, trace=None):
    """Array-engine branches/sec per key plus a bit-identity verdict.

    Identity is checked once per key against the Python engine with
    per-PC collection on (full ``SimulationResult`` equality including
    dict insertion order); throughput is then best-of-``reps`` without
    per-PC collection, matching how ``measure_branches_per_sec`` times
    the Python engine.  The first rep pays the column precompute; the
    best-of discards it, mirroring a warm result cache.
    """
    from repro.sim.engine import run_simulation
    from repro.workloads.catalog import generate_workload

    if trace is None:
        trace = generate_workload(TRACE_NAME, TRACE_INSTRUCTIONS)
    rates = {}
    identical = True
    for key in keys:
        ref = run_simulation(trace, _predictor(key), engine="python",
                             collect_per_pc=True)
        res = run_simulation(trace, _predictor(key), engine="array",
                             collect_per_pc=True)
        same = (
            res == ref
            and list(res.per_pc_mispredictions.items())
            == list(ref.per_pc_mispredictions.items())
            and list(res.per_pc_executions.items())
            == list(ref.per_pc_executions.items()))
        identical = identical and same
        best = 0.0
        for _ in range(reps):
            predictor = _predictor(key)  # fresh tables every rep
            t0 = time.perf_counter()
            run_simulation(trace, predictor, engine="array")
            best = max(best, len(trace) / (time.perf_counter() - t0))
        rates[key] = round(best)
        print(f"  {key:<12} {rates[key]:>12,} branches/sec (array)  "
              f"{'bit-identical' if same else 'DIVERGED'}", flush=True)
    return {"branches_per_sec": rates, "bit_identical": identical}


def measure_new_families(keys=NEW_FAMILY_KEYS, reps=5, trace=None):
    """Python vs array throughput + bit-identity for the scenario-
    diversity families (Bi-Mode, hashed perceptron)."""
    from repro.workloads.catalog import generate_workload

    if trace is None:
        trace = generate_workload(TRACE_NAME, TRACE_INSTRUCTIONS)
    python_rates = measure_branches_per_sec(keys, reps=reps, trace=trace)
    array = measure_array_engine(keys, reps=reps, trace=trace)
    return {
        "python_branches_per_sec": python_rates,
        "array_branches_per_sec": array["branches_per_sec"],
        "speedup_vs_python": {
            key: round(array["branches_per_sec"][key] / python_rates[key], 1)
            for key in keys},
        "bit_identical": array["bit_identical"],
    }


def measure_characterization(winner_instructions=120_000):
    """The characterization pipeline's trajectory facts: the pinned
    metrics-only digest (the byte-determinism evidence bench gates on),
    its cost, and the predicted-winner hit rate over the full catalog on
    the array engine at a budget past LLBP's prefetch warmup."""
    from repro.analysis.characterize import (BENCH_INSTRUCTIONS,
                                             BENCH_WORKLOADS, bench_digest,
                                             characterize)
    from repro.experiments.runner import clear_memory_cache

    t0 = time.perf_counter()
    digest = bench_digest()
    digest_seconds = round(time.perf_counter() - t0, 2)
    print(f"  digest       {digest[:16]}… ({digest_seconds}s)", flush=True)

    saved = os.environ.get("REPRO_ENGINE")
    os.environ["REPRO_ENGINE"] = "array"
    try:
        clear_memory_cache()
        t0 = time.perf_counter()
        artifact = characterize(instructions=winner_instructions)
    finally:
        if saved is None:
            os.environ.pop("REPRO_ENGINE", None)
        else:
            os.environ["REPRO_ENGINE"] = saved
    entries = artifact["workloads"]
    hits = sum(entry["predicted_winner"] == entry["measured_winner"]
               for entry in entries.values())
    sweep_seconds = round(time.perf_counter() - t0, 2)
    print(f"  winner rule  {hits}/{len(entries)} at "
          f"{winner_instructions:,} instructions ({sweep_seconds}s)",
          flush=True)
    return {
        "digest_workloads": ",".join(BENCH_WORKLOADS),
        "digest_instructions": BENCH_INSTRUCTIONS,
        "digest_sha256": digest,
        "digest_seconds": digest_seconds,
        "winner_instructions": winner_instructions,
        "winner_hits": hits,
        "winner_total": len(entries),
        "winner_sweep_seconds": sweep_seconds,
    }


def measure_batched_pass(keys, trace, reps=2):
    """Engine-level serial-vs-batched A/B on one trace (bench.py gate).

    Returns ``(serial_seconds, batched_seconds, bit_identical)`` with
    each side best-of-``reps``, alternating the two sides within each
    rep so both sample the same noise regime on a shared box.
    """
    from repro.sim.engine import run_simulation
    from repro.sim.multi import run_simulation_batch

    serial_best = batched_best = float("inf")
    identical = True
    for _ in range(reps):
        t0 = time.perf_counter()
        serial = [run_simulation(trace, _predictor(key),
                                 collect_per_pc=True) for key in keys]
        serial_best = min(serial_best, time.perf_counter() - t0)

        t0 = time.perf_counter()
        batched = run_simulation_batch(
            trace, [_predictor(key) for key in keys], collect_per_pc=True)
        batched_best = min(batched_best, time.perf_counter() - t0)
        identical = identical and batched == serial
    return serial_best, batched_best, identical


def measure_batched_sweep(workloads=SWEEP_WORKLOADS, keys=SWEEP_KEYS,
                          instructions=SWEEP_INSTRUCTIONS, rounds=2):
    """Cold-result-cache sweep: per-job runner path vs batched runner path.

    Every (workload, key) result is simulated through the *runner* on
    both sides — ``get_result`` per job vs one ``run_batch`` per
    workload — so the comparison includes everything a real figure run
    pays per job (trace-cache load, predictor construction, per-PC
    collection), not just the inner loop.  Traces are pre-published to
    the packed store off the clock; the result cache stays cold
    (``REPRO_RESULT_CACHE=0``).  Both sides must be *byte*-identical:
    the serialised cache JSON is compared, not just the result values.
    """
    import json as _json

    from repro.experiments import runner
    from repro.workloads.catalog import generate_workload

    for workload in workloads:
        generate_workload(workload, instructions)

    saved = os.environ.get("REPRO_RESULT_CACHE")
    os.environ["REPRO_RESULT_CACHE"] = "0"
    serial_best = batched_best = float("inf")
    identical = True
    try:
        for _ in range(rounds):
            runner.clear_memory_cache()
            t0 = time.perf_counter()
            serial = {(w, k): runner.get_result(w, k, instructions)
                      for w in workloads for k in keys}
            serial_best = min(serial_best, time.perf_counter() - t0)

            runner.clear_memory_cache()
            t0 = time.perf_counter()
            batched = {}
            for w in workloads:
                for k, result in zip(keys,
                                     runner.run_batch(w, keys, instructions)):
                    batched[(w, k)] = result
            batched_best = min(batched_best, time.perf_counter() - t0)

            identical = identical and all(
                _json.dumps(runner._to_json(batched[pair]), sort_keys=False)
                == _json.dumps(runner._to_json(serial[pair]),
                               sort_keys=False)
                for pair in serial)
    finally:
        runner.clear_memory_cache()
        if saved is None:
            del os.environ["REPRO_RESULT_CACHE"]
        else:
            os.environ["REPRO_RESULT_CACHE"] = saved

    out = {
        "workloads": ",".join(workloads),
        "keys": ",".join(keys),
        "instructions": instructions,
        "serial_seconds": round(serial_best, 2),
        "batched_seconds": round(batched_best, 2),
        "speedup": round(serial_best / batched_best, 2),
        "byte_identical": identical,
    }
    print(f"  batched sweep: serial {out['serial_seconds']}s, "
          f"batched {out['batched_seconds']}s "
          f"({out['speedup']}x, byte_identical={identical})", flush=True)
    return out


def measure_distributed_sweep(worker_counts=(1, 2, 4),
                              workloads=FIG09_WORKLOADS,
                              instructions=FIG09_INSTRUCTIONS):
    """Fig09 sweep over loopback TCP worker fleets vs cold serial.

    For each count in ``worker_counts`` a fresh ``TCPBackend`` spawns
    that many ``python -m repro.worker`` loopback processes (joined
    *before* the clock starts) and runs the full fig09 job grid through
    ``parallel.run_jobs``; the serial side recomputes the same grid
    in-process with the result cache off.  Traces are pre-published to
    the shared store off the clock, so workers resolve them by hash and
    no trace bytes cross the socket — the measurement isolates task
    dispatch + simulation + result streaming.

    Every distributed run must be **byte-identical** to serial: the
    journal's sha256 ``result_digest`` of every job is compared, not
    just the MPKI values.  ``host_cpus`` records the recording host's
    CPU count: the 2-worker number ``scripts/bench.py`` gates on only
    means scaling when the host had at least two.
    """
    from repro import parallel
    from repro.experiments import fig09, runner
    from repro.experiments.journal import result_digest
    from repro.parallel.backend.tcp import TCPBackend
    from repro.workloads.catalog import generate_workload

    os.environ["REPRO_WORKLOADS"] = workloads
    os.environ["REPRO_INSTRUCTIONS"] = str(instructions)
    for workload in workloads.split(","):
        generate_workload(workload, instructions)

    saved = os.environ.get("REPRO_RESULT_CACHE")
    os.environ["REPRO_RESULT_CACHE"] = "0"
    try:
        runner.clear_memory_cache()
        jobs = parallel.make_jobs(fig09.jobs())
        t0 = time.perf_counter()
        serial = {job: result_digest(
            runner.get_result(job.workload, job.key, job.instructions))
            for job in jobs}
        serial_seconds = time.perf_counter() - t0
        runner.clear_memory_cache()
        print(f"  serial: {serial_seconds:.2f}s ({len(jobs)} jobs)",
              flush=True)

        out = {
            "workloads": workloads,
            "keys": ",".join(sorted({job.key for job in jobs})),
            "instructions": instructions,
            "jobs": len(jobs),
            "serial_seconds": round(serial_seconds, 2),
            "workers": {},
            "byte_identical": True,
        }
        for count in worker_counts:
            backend = TCPBackend(spawn=count)
            try:
                backend.wait_for_workers(count, timeout=60.0)
                runner.clear_memory_cache()
                t0 = time.perf_counter()
                by_job = parallel.run_jobs(jobs, backend=backend)
                elapsed = time.perf_counter() - t0
            finally:
                backend.close()
                parallel.shutdown()
            identical = ({job: result_digest(result)
                          for job, result in by_job.items()} == serial)
            out["byte_identical"] = out["byte_identical"] and identical
            speedup = serial_seconds / elapsed
            out["workers"][str(count)] = {
                "seconds": round(elapsed, 2),
                "speedup": round(speedup, 2),
                "efficiency": round(speedup / count, 2),
            }
            print(f"  tcp x{count}: {elapsed:.2f}s ({speedup:.2f}x, "
                  f"byte_identical={identical})", flush=True)
        out["host_cpus"] = os.cpu_count()
        return out
    finally:
        runner.clear_memory_cache()
        if saved is None:
            del os.environ["REPRO_RESULT_CACHE"]
        else:
            os.environ["REPRO_RESULT_CACHE"] = saved


def measure_fig09_seconds(jobs=1):
    """Wall-clock of a cold-result-cache fig09 regeneration.

    Traces are generated (or loaded) before the clock starts, so the
    number isolates simulation + aggregation.  With ``jobs > 1`` the
    parallel prewarm runs inside the timed region, exactly as
    ``python -m repro.experiments fig09 -j N`` would.
    """
    os.environ["REPRO_WORKLOADS"] = FIG09_WORKLOADS
    os.environ["REPRO_INSTRUCTIONS"] = str(FIG09_INSTRUCTIONS)
    from repro import parallel
    from repro.experiments import fig09, runner
    from repro.workloads.catalog import generate_workload

    for workload in FIG09_WORKLOADS.split(","):
        generate_workload(workload, FIG09_INSTRUCTIONS)

    runner.clear_memory_cache()
    if jobs > 1:
        # Parallel path communicates results through the disk cache, so
        # it must stay enabled; point it at a throwaway dir to keep the
        # measurement cold.
        import tempfile

        with tempfile.TemporaryDirectory() as fresh:
            saved = os.environ.get("REPRO_CACHE_DIR")
            os.environ["REPRO_CACHE_DIR"] = fresh
            try:
                for workload in FIG09_WORKLOADS.split(","):
                    generate_workload(workload, FIG09_INSTRUCTIONS)
                t0 = time.perf_counter()
                parallel.run_jobs(parallel.make_jobs(fig09.jobs()),
                                  max_workers=jobs)
                fig09.run()
                elapsed = time.perf_counter() - t0
            finally:
                parallel.shutdown()
                if saved is None:
                    del os.environ["REPRO_CACHE_DIR"]
                else:
                    os.environ["REPRO_CACHE_DIR"] = saved
    else:
        os.environ["REPRO_RESULT_CACHE"] = "0"
        try:
            t0 = time.perf_counter()
            fig09.run()
            elapsed = time.perf_counter() - t0
        finally:
            del os.environ["REPRO_RESULT_CACHE"]
    runner.clear_memory_cache()
    print(f"  fig09 (jobs={jobs}) {elapsed:.2f}s", flush=True)
    return round(elapsed, 2)


def measure(quick=False, jobs=1):
    print("measuring branches/sec "
          f"({'quick' if quick else 'full'}, trace={TRACE_NAME} "
          f"x{TRACE_INSTRUCTIONS})", flush=True)
    data = {
        "branches_per_sec": measure_branches_per_sec(
            QUICK_KEYS if quick else FULL_KEYS, reps=2 if quick else 5),
    }
    if not quick:
        print("measuring fig09 end-to-end", flush=True)
        data["fig09_seconds"] = measure_fig09_seconds(jobs=jobs)
    return data


def _speedups(before, after):
    out = {}
    for key, base in before.get("branches_per_sec", {}).items():
        now = after.get("branches_per_sec", {}).get(key)
        if base and now:
            out[key] = round(now / base, 2)
    if before.get("fig09_seconds") and after.get("fig09_seconds"):
        out["fig09_end_to_end"] = round(
            before["fig09_seconds"] / after["fig09_seconds"], 2)
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="fewer keys/reps, no end-to-end run; print only")
    parser.add_argument("--jobs", type=int, default=1,
                        help="worker processes for the fig09 measurement")
    parser.add_argument("--output", type=Path, default=DEFAULT_OUTPUT,
                        help="perf trajectory file to update (full mode)")
    parser.add_argument("--fresh", action="store_true",
                        help="discard the previous 'after' numbers instead "
                             "of keeping the best of old and new")
    parser.add_argument("--sweep-only", action="store_true",
                        help="measure only the batched sweep and update its "
                             "section of the trajectory file")
    parser.add_argument("--distributed-only", action="store_true",
                        help="measure only the distributed (TCP-backend) "
                             "sweep and update its section of the "
                             "trajectory file")
    parser.add_argument("--families-only", action="store_true",
                        help="measure only the Bi-Mode/perceptron families "
                             "(python vs array) and update the new_families "
                             "section of the trajectory file")
    parser.add_argument("--characterize-only", action="store_true",
                        help="measure only the characterization digest and "
                             "winner hit rate and update the "
                             "characterization section of the trajectory "
                             "file")
    args = parser.parse_args(argv)

    if args.families_only:
        print("measuring new predictor families (python vs array)",
              flush=True)
        section = measure_new_families()
        existing = (json.loads(args.output.read_text())
                    if args.output.exists() else {})
        old = existing.get("new_families")
        if (not args.fresh and old and old.get("bit_identical")
                and section["bit_identical"]):
            # Best-of per key across harness invocations, same policy as
            # the branches_per_sec sections on this noisy box.
            for field in ("python_branches_per_sec",
                          "array_branches_per_sec"):
                for key, val in old.get(field, {}).items():
                    if key in section[field]:
                        section[field][key] = max(section[field][key], val)
            section["speedup_vs_python"] = {
                key: round(section["array_branches_per_sec"][key]
                           / section["python_branches_per_sec"][key], 1)
                for key in section["speedup_vs_python"]}
        existing["new_families"] = section
        args.output.write_text(json.dumps(existing, indent=2) + "\n")
        print(f"wrote {args.output}")
        return 0 if section["bit_identical"] else 1

    if args.characterize_only:
        print("measuring characterization digest + winner hit rate",
              flush=True)
        section = measure_characterization()
        existing = (json.loads(args.output.read_text())
                    if args.output.exists() else {})
        existing["characterization"] = section
        args.output.write_text(json.dumps(existing, indent=2) + "\n")
        print(f"wrote {args.output}")
        return 0 if section["winner_hits"] >= 10 else 1

    if args.distributed_only:
        print("measuring distributed sweep (loopback TCP fleets vs serial)",
              flush=True)
        sweep = measure_distributed_sweep()
        existing = (json.loads(args.output.read_text())
                    if args.output.exists() else {})
        old = existing.get("distributed_sweep")
        if (not args.fresh and old
                and old.get("workers", {}).get("2", {}).get("speedup", 0)
                > sweep["workers"].get("2", {}).get("speedup", 0)
                and old.get("byte_identical")
                and sweep["byte_identical"]):
            sweep = old  # best-of across harness invocations
        existing["distributed_sweep"] = sweep
        args.output.write_text(json.dumps(existing, indent=2) + "\n")
        print(f"wrote {args.output}")
        return 0 if sweep["byte_identical"] else 1

    if args.sweep_only:
        print("measuring batched sweep (per-job runner vs run_batch)",
              flush=True)
        sweep = measure_batched_sweep()
        existing = (json.loads(args.output.read_text())
                    if args.output.exists() else {})
        old = existing.get("batched_sweep")
        if (not args.fresh and old
                and old.get("speedup", 0) > sweep["speedup"]
                and old.get("byte_identical")
                and sweep["byte_identical"]):
            sweep = old  # best-of across harness invocations
        existing["batched_sweep"] = sweep
        args.output.write_text(json.dumps(existing, indent=2) + "\n")
        print(f"wrote {args.output}")
        return 0 if sweep["byte_identical"] else 1

    after = measure(quick=args.quick, jobs=args.jobs)
    if args.quick:
        print(json.dumps(after, indent=2))
        return 0

    existing = {}
    if args.output.exists():
        existing = json.loads(args.output.read_text())
    if not args.fresh and "after" in existing:
        # Best-of across harness invocations, for the same reason as
        # best-of-N within one: on a shared box a whole run can land in
        # a throttled phase, and the maximum is the honest estimate.
        old = existing["after"]
        for key, val in old.get("branches_per_sec", {}).items():
            cur = after["branches_per_sec"].get(key)
            if cur is None or val > cur:
                after["branches_per_sec"][key] = val
        if "fig09_seconds" in old and (
                "fig09_seconds" not in after
                or old["fig09_seconds"] < after["fig09_seconds"]):
            after["fig09_seconds"] = old["fig09_seconds"]

    print("measuring array engine", flush=True)
    array_section = measure_array_engine()
    old_array = existing.get("array_engine")
    if (not args.fresh and old_array
            and old_array.get("bit_identical")
            and array_section["bit_identical"]):
        # Same best-of-across-invocations policy as the Python numbers.
        for key, val in old_array.get("branches_per_sec", {}).items():
            cur = array_section["branches_per_sec"].get(key)
            if cur is None or val > cur:
                array_section["branches_per_sec"][key] = val
    array_section["speedup_vs_python"] = {
        key: round(val / after["branches_per_sec"][key], 2)
        for key, val in array_section["branches_per_sec"].items()
        if after["branches_per_sec"].get(key)
    }
    before = existing.get("before") or after
    # Sections this run does not measure (the --*-only modes' and the
    # notes) carry over unchanged, in their existing order.
    payload = dict(existing)
    payload.update({
        "meta": {
            "trace": TRACE_NAME,
            "trace_instructions": TRACE_INSTRUCTIONS,
            "fig09_workloads": FIG09_WORKLOADS,
            "fig09_instructions": FIG09_INSTRUCTIONS,
            "host_cpus": os.cpu_count(),
            "python": platform.python_version(),
            "fig09_jobs": args.jobs,
        },
        "before": before,
        "after": after,
        "speedup": _speedups(before, after),
        "array_engine": array_section,
    })
    args.output.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {args.output}")
    return 0


if __name__ == "__main__":
    sys.path.insert(0, str(REPO_ROOT / "src"))
    sys.exit(main())
