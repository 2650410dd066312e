#!/usr/bin/env python
"""Quick engine-throughput regression gate (< 60 s).

Run from the repo root::

    python scripts/bench.py            # compare against committed baseline
    python scripts/bench.py --update   # accept current numbers as baseline
    python scripts/bench.py --smoke    # CI mode: reduced trace, relative gate

Measures branches/sec for a small set of predictor keys on the same trace
configuration as ``benchmarks/perf/harness.py`` and compares each key
against the committed ``BENCH_engine.json`` ``after`` numbers.  Exits
non-zero if any key regresses by more than ``--threshold`` (default 20%).

Both modes also gate the shared-trace batched engine
(``run_simulation_batch``): a tsl64+llbp batch must stay bit-identical
to its serial equivalents and must not be slower than running them
serially (the committed ``batched_sweep`` section records the full
multi-key speedup; see ``harness.py --sweep-only``).

Both modes also gate the committed ``distributed_sweep`` section (see
``harness.py --distributed-only``): the recorded fig09 sweep over
loopback TCP workers must be byte-identical to serial and hold the
>=1.6x / 0.8-efficiency scaling floor on 2 workers.  This check is
deterministic — no worker fleets are spawned by the gate itself; the
live distributed paths run in the CI ``test-distributed`` leg.

Both modes also gate the design-space exploration harness
(``repro.explore``): the fixed-seed smoke search must reproduce the
committed golden Pareto frontier (``tests/explore/golden_frontier.json``)
byte-identically through the real CLI.

Both modes additionally gate the array engine (``repro.sim.array``):
bit-identity to the Python engine is a hard failure in either mode; the
full gate also checks the committed ``array_engine`` numbers hold the
≥5x floor over the committed Python ``after`` numbers and that a live
measurement stays within the threshold of them, while the smoke gate
compares the array/engine-null throughput ratio against the committed
one so runner speed cancels out.

``--smoke`` is for CI runners whose absolute speed has nothing to do with
the machine that produced the committed baseline: it uses a reduced
branch count and gates on each key's throughput *relative to*
``engine-null`` (the no-op-predictor loop measured in the same run), so a
hot-loop regression in one predictor family still fails the PR while an
overall slow runner does not.  The smoke threshold is looser (default
50%) because short runs on shared runners are noisy.

The box this runs on is noisy, so a key that lands below the bar gets one
best-of retry with more reps before the gate fails; use the full harness
(``benchmarks/perf/harness.py``) for numbers worth committing.

Both modes honour ``REPRO_TELEMETRY=DIR``: the engine then logs per-phase
events that ``scripts/report.py DIR -o telemetry_summary.json`` turns
into the summary artifact CI uploads.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO_ROOT / "src"))
sys.path.insert(0, str(REPO_ROOT))

BASELINE = REPO_ROOT / "BENCH_engine.json"

# Keep the quick gate under a minute: the two cheap keys bound the engine
# loop and table predictors, the two expensive ones bound the TAGE-SC-L
# and LLBP hot paths where the optimization work lives.
KEYS = ("engine-null", "bimodal", "tsl64", "llbp")

#: Smoke-mode trace length: enough branches for a stable rate, small
#: enough that the whole job stays in low single-digit minutes on a
#: shared CI runner.
SMOKE_INSTRUCTIONS = 150_000

#: Keys for the batched-engine gate: the pair with the deepest sharing
#: (llbp's internal TSL duplicates tsl64's fold and lookup geometry).
BATCH_KEYS = ("tsl64", "llbp")


def _gate_batched(trace, committed: dict) -> int:
    """Gate the shared-trace batched path: identity is a hard failure,
    and the batch must not have become slower than running its members
    serially (the committed sweep records the real multi-key speedup;
    this quick check only needs to catch a batched-path regression, so
    the floor is 1.0x after one best-of retry on this noisy box).
    """
    from benchmarks.perf.harness import measure_batched_pass

    serial_s, batched_s, identical = measure_batched_pass(BATCH_KEYS, trace)
    if not identical:
        print(f"FAIL: batched {'+'.join(BATCH_KEYS)} results diverged "
              "from serial run_simulation")
        return 1
    speedup = serial_s / batched_s
    if speedup < 1.0:
        serial_s, batched_s, identical = measure_batched_pass(
            BATCH_KEYS, trace, reps=3)
        if not identical:
            print("FAIL: batched results diverged from serial on retry")
            return 1
        speedup = serial_s / batched_s
    recorded = committed.get("speedup")
    status = "ok" if speedup >= 1.0 else "REGRESSED"
    print(f"  batched      {speedup:.2f}x vs serial (committed sweep: "
          f"{recorded}x)  bit-identical  {status}")
    if status != "ok":
        print("FAIL: batched pass slower than serial equivalents")
        return 1
    return 0


#: Acceptance floor for the committed array-engine numbers: the array
#: engine must be at least this many times faster than the committed
#: Python-engine "after" numbers for the hot predictor families.
ARRAY_SPEEDUP_FLOOR = 5.0
ARRAY_GATE_KEYS = ("tsl64", "llbp")

#: Acceptance floors for the committed distributed sweep: 2 loopback
#: workers must deliver >=1.6x over cold serial (>=0.8 scaling
#: efficiency).
DISTRIBUTED_SPEEDUP_FLOOR = 1.6
DISTRIBUTED_EFFICIENCY_FLOOR = 0.8


def _gate_distributed(data: dict) -> int:
    """Gate the committed ``distributed_sweep`` section (deterministic —
    no fleets are spawned here; the CI ``test-distributed`` leg runs the
    live byte-identity checks).  Byte-identity is a hard failure; the
    scaling floor is checked against the measured 2-worker numbers.
    """
    sweep = data.get("distributed_sweep")
    if not sweep:
        print("no committed distributed_sweep section; run "
              "benchmarks/perf/harness.py --distributed-only to record one")
        return 1
    if not sweep.get("byte_identical"):
        print("FAIL: committed distributed sweep was not byte-identical "
              "to serial")
        return 1

    two = sweep.get("workers", {}).get("2", {})
    speedup = two.get("speedup", 0.0)
    efficiency = two.get("efficiency", 0.0)
    ok = (speedup >= DISTRIBUTED_SPEEDUP_FLOOR
          and efficiency >= DISTRIBUTED_EFFICIENCY_FLOOR)
    print(f"  distributed  {speedup:.2f}x on 2 workers "
          f"({sweep.get('host_cpus')} CPUs, efficiency {efficiency:.2f})  "
          f"byte-identical  {'ok' if ok else 'REGRESSED'}")
    if not ok:
        print(f"FAIL: distributed sweep below the "
              f"{DISTRIBUTED_SPEEDUP_FLOOR}x / "
              f"{DISTRIBUTED_EFFICIENCY_FLOOR} efficiency floor")
        return 1
    return 0


#: The explore gate's fixture: the frontier the pinned smoke search
#: (``python -m repro.explore --budget smoke``) must reproduce byte for
#: byte.  The search pins its own workloads and trace lengths, so the
#: check is deterministic regardless of REPRO_WORKLOADS / REPRO_ENGINE.
EXPLORE_GOLDEN = REPO_ROOT / "tests" / "explore" / "golden_frontier.json"


def _gate_explore() -> int:
    """Gate the design-space exploration harness: the fixed-seed smoke
    search must reproduce the committed golden Pareto frontier
    byte-identically, through the real ``python -m repro.explore`` CLI.
    Any drift in the halving schedule, shuffle, MPKI accounting, the
    storage model or the artifact layout fails here.
    """
    import os
    import subprocess

    if not EXPLORE_GOLDEN.exists():
        print(f"no golden frontier at {EXPLORE_GOLDEN}; run "
              "pytest tests/explore/test_golden_frontier.py "
              "--update-golden to record one")
        return 1
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src") + os.pathsep + env.get(
        "PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, "-m", "repro.explore", "--budget", "smoke",
         "--check", str(EXPLORE_GOLDEN), "--quiet"],
        env=env, capture_output=True, text=True)
    if proc.returncode != 0:
        print("FAIL: smoke explore search did not reproduce the golden "
              "frontier")
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        return 1
    print("  explore      smoke frontier byte-identical to committed "
          "golden  ok")
    return 0


def _gate_array(trace, data: dict, threshold: float) -> int:
    """Gate the array engine: identity is a hard failure; throughput is
    gated two ways — the *committed* ``array_engine`` numbers must hold
    the ≥5x acceptance floor over the committed Python ``after`` numbers
    (a deterministic check on the recorded trajectory), and the *live*
    measurement must stay within ``threshold`` of the committed array
    numbers (with one best-of retry, same policy as every other gate on
    this noisy box).
    """
    from benchmarks.perf.harness import measure_array_engine

    committed = data.get("array_engine", {})
    committed_rates = committed.get("branches_per_sec", {})
    after_rates = data.get("after", {}).get("branches_per_sec", {})
    if not committed_rates:
        print("no committed array_engine section; run "
              "benchmarks/perf/harness.py to record one")
        return 1

    failures = []
    for key in ARRAY_GATE_KEYS:
        base, python_rate = committed_rates.get(key), after_rates.get(key)
        if not base or not python_rate:
            print(f"  array:{key:<6} missing committed numbers")
            failures.append(key)
            continue
        floor = python_rate * ARRAY_SPEEDUP_FLOOR
        if base < floor:
            print(f"  array:{key:<6} committed {base:,} < {floor:,.0f} "
                  f"({ARRAY_SPEEDUP_FLOOR:.0f}x python after)  REGRESSED")
            failures.append(key)

    measured = measure_array_engine(ARRAY_GATE_KEYS, reps=2, trace=trace)
    if not measured["bit_identical"]:
        print("FAIL: array engine diverged from the Python engine")
        return 1
    for key in ARRAY_GATE_KEYS:
        base = committed_rates.get(key)
        if not base or key in failures:
            continue
        now = measured["branches_per_sec"][key]
        if now < base * (1 - threshold):
            print(f"  array:{key:<6} below threshold, retrying")
            retry = measure_array_engine((key,), reps=4, trace=trace)
            if not retry["bit_identical"]:
                print("FAIL: array engine diverged on retry")
                return 1
            now = max(now, retry["branches_per_sec"][key])
        status = "ok" if now >= base * (1 - threshold) else "REGRESSED"
        print(f"  array:{key:<6} {now:>12,} vs committed {base:>12,}  "
              f"({now / base:.2f}x)  bit-identical  {status}")
        if status != "ok":
            failures.append(key)

    if failures:
        print(f"FAIL: array engine gate failed for {', '.join(failures)}")
        return 1
    return 0


def _smoke_array(trace, data: dict, threshold: float) -> int:
    """Smoke-mode array gate: bit-identity (hard) plus throughput
    relative to this run's engine-null, compared against the committed
    array/null ratio — absolute speed of the runner cancels out.
    """
    from benchmarks.perf.harness import (measure_array_engine,
                                         measure_branches_per_sec)

    committed_rates = data.get("array_engine", {}).get("branches_per_sec", {})
    null_base = data.get("after", {}).get("branches_per_sec", {}).get(
        "engine-null")
    if not committed_rates or not null_base:
        print("no committed array_engine/engine-null numbers; skipping "
              "array smoke gate")
        return 0

    null_now = measure_branches_per_sec(("engine-null",), reps=2,
                                        trace=trace)["engine-null"]
    measured = measure_array_engine(ARRAY_GATE_KEYS, reps=2, trace=trace)
    if not measured["bit_identical"]:
        print("FAIL: array engine diverged from the Python engine")
        return 1

    failures = []
    for key in ARRAY_GATE_KEYS:
        base = committed_rates.get(key)
        if not base:
            continue
        base_ratio = base / null_base
        now_ratio = measured["branches_per_sec"][key] / null_now
        if now_ratio < base_ratio * (1 - threshold):
            retry = measure_array_engine((key,), reps=4, trace=trace)
            if not retry["bit_identical"]:
                print("FAIL: array engine diverged on retry")
                return 1
            now_ratio = max(now_ratio,
                            retry["branches_per_sec"][key] / null_now)
        status = ("ok" if now_ratio >= base_ratio * (1 - threshold)
                  else "REGRESSED")
        print(f"  array:{key:<6} {now_ratio:.3f}x of engine-null vs "
              f"baseline {base_ratio:.3f}x  bit-identical  {status}")
        if status != "ok":
            failures.append(key)
    if failures:
        print(f"FAIL: array smoke gate failed for {', '.join(failures)}")
        return 1
    return 0


#: The scenario-diversity families added with the characterization
#: pipeline.  Their committed array numbers must beat their committed
#: Python numbers by at least the floor (measured 4.6x for Bi-Mode and
#: over 10x for the perceptron on the reference box; the floor leaves
#: room for slower hosts re-recording the trajectory).
NEW_FAMILY_KEYS = ("bimode", "percep")
NEW_FAMILY_SPEEDUP_FLOOR = 2.0


def _gate_new_families(trace, data: dict) -> int:
    """Gate the Bi-Mode / perceptron families: live bit-identity against
    the Python oracle is a hard failure, and the *committed*
    ``new_families`` numbers must hold the array-over-python floor — a
    deterministic check on the recorded trajectory, so the gate runs
    identically in full and smoke modes.
    """
    from benchmarks.perf.harness import measure_array_engine

    committed = data.get("new_families", {})
    if not committed:
        print("no committed new_families section; run "
              "benchmarks/perf/harness.py --families-only to record one")
        return 1
    if not committed.get("bit_identical"):
        print("FAIL: committed new_families section records divergence")
        return 1

    failures = []
    for key in NEW_FAMILY_KEYS:
        python_rate = committed.get("python_branches_per_sec", {}).get(key)
        array_rate = committed.get("array_branches_per_sec", {}).get(key)
        if not python_rate or not array_rate:
            print(f"  family:{key:<6} missing committed numbers")
            failures.append(key)
            continue
        if array_rate < python_rate * NEW_FAMILY_SPEEDUP_FLOOR:
            print(f"  family:{key:<6} committed array {array_rate:,} < "
                  f"{NEW_FAMILY_SPEEDUP_FLOOR:.0f}x python "
                  f"{python_rate:,}  REGRESSED")
            failures.append(key)
        else:
            print(f"  family:{key:<6} committed array "
                  f"{array_rate / python_rate:.1f}x python  ok")

    measured = measure_array_engine(NEW_FAMILY_KEYS, reps=2, trace=trace)
    if not measured["bit_identical"]:
        print("FAIL: a new-family array implementation diverged from the "
              "Python engine")
        return 1
    if failures:
        print(f"FAIL: new-family gate failed for {', '.join(failures)}")
        return 1
    return 0


#: The characterization acceptance floor: the metrics-only rule must
#: name the measured-best family on at least this many of the 14
#: catalog workloads (asserted live in tests/analysis, pinned here on
#: the committed trajectory).
CHARACTERIZE_WINNER_FLOOR = 10


def _gate_characterization(data: dict) -> int:
    """Gate the characterization pipeline: the pinned metrics-only
    artifact must hash to the committed digest (the byte-determinism
    contract CI also diffs across backends), and the committed winner
    hit rate must hold the acceptance floor.  Both checks are
    deterministic, so the gate runs identically in full and smoke modes.
    """
    from repro.analysis.characterize import (BENCH_INSTRUCTIONS,
                                             BENCH_WORKLOADS, bench_digest)

    committed = data.get("characterization", {})
    if not committed:
        print("no committed characterization section; run "
              "benchmarks/perf/harness.py --characterize-only to record one")
        return 1
    expected = committed.get("digest_sha256")
    if (not expected
            or committed.get("digest_workloads") != ",".join(BENCH_WORKLOADS)
            or committed.get("digest_instructions") != BENCH_INSTRUCTIONS):
        print("FAIL: committed characterization section does not pin the "
              "current BENCH_WORKLOADS/BENCH_INSTRUCTIONS; re-record with "
              "benchmarks/perf/harness.py --characterize-only")
        return 1
    digest = bench_digest()
    if digest != expected:
        print(f"FAIL: characterization digest {digest[:16]}... != "
              f"committed {expected[:16]}... (metric or serialisation "
              "drift)")
        return 1
    hits = committed.get("winner_hits", 0)
    total = committed.get("winner_total", 0)
    if hits < CHARACTERIZE_WINNER_FLOOR:
        print(f"FAIL: committed winner hit rate {hits}/{total} is below "
              f"the {CHARACTERIZE_WINNER_FLOOR}-workload floor")
        return 1
    print(f"  characterize digest matches committed ({digest[:16]}...); "
          f"winner rule {hits}/{total}  ok")
    return 0


def _smoke(args, baseline: dict) -> int:
    """Relative gate: key throughput normalized by this run's engine-null."""
    from benchmarks.perf.harness import TRACE_NAME, measure_branches_per_sec
    from repro.workloads.catalog import generate_workload

    trace = generate_workload(TRACE_NAME, SMOKE_INSTRUCTIONS)
    measured = measure_branches_per_sec(KEYS, reps=2, trace=trace)

    null_base = baseline.get("engine-null")
    null_now = measured["engine-null"]
    if not null_base or not null_now:
        print("no engine-null reference; smoke gate needs it — skipping")
        return 0

    failures = []
    for key in KEYS:
        if key == "engine-null":
            continue
        base = baseline.get(key)
        if not base:
            print(f"  {key:<12} no baseline entry, skipping")
            continue
        base_ratio = base / null_base
        now_ratio = measured[key] / null_now
        if now_ratio < base_ratio * (1 - args.threshold):
            print(f"  {key:<12} below threshold, retrying with more reps")
            retry = measure_branches_per_sec((key,), reps=4, trace=trace)
            now_ratio = max(now_ratio, retry[key] / null_now)
        status = ("ok" if now_ratio >= base_ratio * (1 - args.threshold)
                  else "REGRESSED")
        print(f"  {key:<12} {now_ratio:.3f}x of engine-null vs baseline "
              f"{base_ratio:.3f}x  ({now_ratio / base_ratio:.2f})  {status}")
        if status != "ok":
            failures.append(key)

    if failures:
        print(f"FAIL: relative regression in {', '.join(failures)} "
              f"(>{args.threshold:.0%} below baseline ratio)")
        return 1
    if _gate_batched(trace, args.batched_committed):
        return 1
    if _smoke_array(trace, args.data, args.threshold):
        return 1
    if _gate_new_families(trace, args.data):
        return 1
    if _gate_distributed(args.data):
        return 1
    if _gate_explore():
        return 1
    if _gate_characterization(args.data):
        return 1
    print("PASS: no key regressed beyond threshold (relative gate)")
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--threshold", type=float, default=None,
                        help="allowed fractional regression per key "
                             "(default 0.20 = 20%%; 0.50 in --smoke mode)")
    parser.add_argument("--update", action="store_true",
                        help="write measured numbers into the baseline's "
                             "'after' section instead of comparing")
    parser.add_argument("--smoke", action="store_true",
                        help="CI mode: reduced branch count and a gate on "
                             "throughput relative to engine-null instead "
                             "of absolute branches/sec")
    args = parser.parse_args(argv)
    if args.threshold is None:
        args.threshold = 0.50 if args.smoke else 0.20

    from benchmarks.perf.harness import measure_branches_per_sec

    if args.smoke:
        if not BASELINE.exists():
            print(f"no baseline at {BASELINE}; nothing to gate against")
            return 0
        data = json.loads(BASELINE.read_text())
        args.batched_committed = data.get("batched_sweep", {})
        args.data = data
        print(f"smoke bench: {', '.join(KEYS)} "
              f"({SMOKE_INSTRUCTIONS:,} instructions, relative gate)")
        return _smoke(args, data.get("after", {}).get("branches_per_sec", {}))

    print(f"quick bench: {', '.join(KEYS)}")
    measured = measure_branches_per_sec(KEYS, reps=2)

    if not BASELINE.exists():
        print(f"no baseline at {BASELINE}; run benchmarks/perf/harness.py "
              "to create one")
        return 0 if not args.update else 1

    data = json.loads(BASELINE.read_text())
    baseline = data.get("after", {}).get("branches_per_sec", {})

    if args.update:
        for key, val in measured.items():
            baseline[key] = val
        data.setdefault("after", {})["branches_per_sec"] = baseline
        BASELINE.write_text(json.dumps(data, indent=2) + "\n")
        print(f"updated baseline in {BASELINE}")
        return 0

    failures = []
    for key in KEYS:
        base = baseline.get(key)
        if not base:
            print(f"  {key:<12} no baseline entry, skipping")
            continue
        now = measured[key]
        if now < base * (1 - args.threshold):
            # One retry with more reps: a single throttled phase on this
            # box can sink a best-of-2 by well over the threshold.
            print(f"  {key:<12} below threshold, retrying with more reps")
            now = max(now, measure_branches_per_sec((key,), reps=4)[key])
        ratio = now / base
        status = "ok" if now >= base * (1 - args.threshold) else "REGRESSED"
        print(f"  {key:<12} {now:>12,} vs baseline {base:>12,}  "
              f"({ratio:.2f}x)  {status}")
        if status != "ok":
            failures.append(key)

    if failures:
        print(f"FAIL: regression in {', '.join(failures)} "
              f"(>{args.threshold:.0%} below baseline)")
        return 1

    from benchmarks.perf.harness import TRACE_INSTRUCTIONS, TRACE_NAME
    from repro.workloads.catalog import generate_workload

    trace = generate_workload(TRACE_NAME, TRACE_INSTRUCTIONS)
    if _gate_batched(trace, data.get("batched_sweep", {})):
        return 1
    if _gate_array(trace, data, args.threshold):
        return 1
    if _gate_new_families(trace, data):
        return 1
    if _gate_distributed(data):
        return 1
    if _gate_explore():
        return 1
    if _gate_characterization(data):
        return 1
    print("PASS: no key regressed beyond threshold")
    return 0


if __name__ == "__main__":
    sys.exit(main())
