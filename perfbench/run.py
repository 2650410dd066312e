"""End-to-end and per-layer benchmark of the repro workflows.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S]
                             [--trace 0|1]

    for w in fig09-cold fig09-array-cold fig09-array-warm characterize-adv
    do python3 perfbench/run.py --workload $w; done     # every workload

Run from the repository root.  Each workload is one workflow launched
the way a user launches it, with two pool workers and a fresh
``REPRO_CACHE_DIR`` per launch; ``WORKLOADS`` says why each one is
here.  A run launches the workflow again and again for ``--seconds``
and reports medians:

* ``--trace 0``: the end-to-end metrics, measured with tracing off.
  ``wall_s`` is launch to exit; ``setup_s`` is launch until the first
  ``run_jobs`` call (interpreter, imports, CLI parse, cache and journal
  open), taken from set-up-only launches and from every timed launch;
  ``cpu_s`` and ``peak_rss_mb`` come from ``wait4`` on the launched
  process, so they cover its pool workers and this launch only;
  ``sim_instr_per_s`` is the instruction budget of every job simulated
  per wall second.
* ``--trace 1``: launches alternate between untraced and traced; the
  traced ones report the per-layer metrics of ``layers.py`` and
  ``trace.overhead_s``, the traced minus the untraced median wall time.

Every launch is checked: it must exit 0, simulate every job of the
grid, retry nothing, and its output must match.  The fig09 digest is
taken over the result-cache files and is shared by the three fig09
workloads, so it also checks python == array and cold == warm.  Seed 0
runs the catalog as committed and compares against ``reference.json``.
Any other seed re-seeds the generated workloads; its digests are then
compared within the run and, through a registry under ``.work/`` keyed
by the source tree, across the fig09 workloads of this checkout.

The last line of output is one JSON object: ``correct``, ``attempted``
(simulation jobs plus output checks), ``failed`` (missing jobs,
retries, pool rebuilds, crashed launches and mismatches) and
``metrics``.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Dict, List, Optional

sys.dont_write_bytecode = True  # keep the benchmark directory source-only
import layers  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
LAUNCHER = HERE / "launch.py"
WORK = HERE / ".work"

JOBS = 2                 # pool workers: this host's CPU count
SETUP_LAUNCHES = 8       # set-up-only launches per run, before the timed ones
RUN_DEADLINE_S = 165.0   # a run must end within 180 s

FIG09_WORKLOADS = "NodeApp,PHPWiki,Kafka,Tomcat"
FIG09_INSTRUCTIONS = 50_000
FIG09_KEYS = 4           # tsl64 plus fig09.CONFIGS
CHAR_WORKLOADS = "NodeApp,Kafka,adv:xor,adv:hist"
CHAR_INSTRUCTIONS = 40_000
CHAR_FAMILIES = 5        # characterize.FAMILIES

END_TO_END = (("wall_s", "s"), ("setup_s", "s"), ("cpu_s", "s"),
              ("sim_instr_per_s", "instr/s"), ("peak_rss_mb", "MiB"))


@dataclasses.dataclass(frozen=True)
class Workload:
    name: str
    argv: tuple          # launch.py workflow and its CLI arguments
    env: tuple           # pinned REPRO_* knobs beyond the common ones
    check: str           # reference key; equal keys must give equal digests
    artifact: bool       # digest the --out artifact, not the result cache
    jobs: int            # simulations one launch must run
    instructions: int
    warm: bool = False   # start from a trace store filled off the clock


def _fig09(name: str, engine: Optional[str], warm: bool = False) -> Workload:
    argv = ("experiments", "fig09", "-j", str(JOBS))
    if engine:
        argv += ("--engine", engine)
    return Workload(
        name=name, argv=argv,
        env=(("REPRO_WORKLOADS", FIG09_WORKLOADS),
             ("REPRO_INSTRUCTIONS", str(FIG09_INSTRUCTIONS))),
        check=f"fig09|{FIG09_WORKLOADS}|{FIG09_INSTRUCTIONS}",
        artifact=False, jobs=len(FIG09_WORKLOADS.split(",")) * FIG09_KEYS,
        instructions=FIG09_INSTRUCTIONS, warm=warm)


WORKLOADS: Dict[str, Workload] = {w.name: w for w in (
    # The paper's figure as a new user first runs it: the Python sim
    # loop carries it and column precompute never runs.
    _fig09("fig09-cold", None),
    # Column precompute and aux-column store writes dominate: the only
    # workload where a sim.columns gain or memory cost shows.
    _fig09("fig09-array-cold", "array"),
    # The same layers the other way: store reads and column reuse, so
    # the array sim loop carries it and a columns gain must not move it.
    _fig09("fig09-array-warm", "array", warm=True),
    # The only workflow that runs analysis, the gshare/bimode/perceptron
    # families and adversarial generation; its one heavy adv:xor task
    # shows the load balance across pool workers.
    Workload(
        name="characterize-adv",
        argv=("characterize", "--workloads", CHAR_WORKLOADS,
              "--instructions", str(CHAR_INSTRUCTIONS), "--out", "{out}"),
        env=(),
        check=f"characterize|{CHAR_WORKLOADS}|{CHAR_INSTRUCTIONS}",
        artifact=True, jobs=len(CHAR_WORKLOADS.split(",")) * CHAR_FAMILIES,
        instructions=CHAR_INSTRUCTIONS),
)}


@dataclasses.dataclass
class Launch:
    wall: float
    cpu: float
    rss_mb: float
    setup: Optional[float]
    jobs: int = 0
    layer_values: Optional[Dict[str, float]] = None
    errors: List[str] = dataclasses.field(default_factory=list)


def results_digest(directory: Path):
    """(file count, sha256 over the canonical JSON of every result file)."""
    canonical = sorted(
        json.dumps(json.loads(path.read_text()), sort_keys=True,
                   separators=(",", ":"))
        for path in directory.glob("*.json"))
    return len(canonical), hashlib.sha256(
        "\n".join(canonical).encode()).hexdigest()


def source_digest() -> str:
    """Digest of the program and of the launcher that re-seeds its inputs."""
    digest = hashlib.sha256()
    for path in [*sorted((ROOT / "src").rglob("*.py")), LAUNCHER]:
        digest.update(str(path.relative_to(ROOT)).encode() + b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()


class Digests:
    """Expected output digests for one seed.

    Seed 0 compares against the committed ``reference.json``.  Any other
    seed compares against the first digest seen for its check key, kept
    in a registry so later runs of this source tree reuse it.
    """

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.registry = WORK / "digests.json"
        self.prefix = f"{source_digest()}|{seed}|" if seed else ""

    def _load(self, path: Path) -> Dict[str, str]:
        try:
            return json.loads(path.read_text())
        except (OSError, ValueError):
            return {}

    def check(self, key: str, digest: str) -> Optional[str]:
        """``None`` if ``digest`` is the expected one, else an error."""
        if not self.seed:
            expected = self._load(HERE / "reference.json").get(key)
            if expected is None:
                return f"reference.json has no digest for {key!r} ({digest})"
        else:
            known = self._load(self.registry)
            expected = known.setdefault(self.prefix + key, digest)
            if expected == digest:
                tmp = self.registry.with_suffix(f".{os.getpid()}.tmp")
                tmp.write_text(json.dumps(known, indent=1, sort_keys=True))
                os.replace(tmp, self.registry)
        if expected != digest:
            return f"{key}: digest {digest} != expected {expected}"
        return None


class Bench:
    def __init__(self, workload: Workload, seed: int, run_dir: Path,
                 deadline: float) -> None:
        self.workload = workload
        self.seed = seed
        self.run_dir = run_dir
        self.deadline = deadline
        self.digests = Digests(seed)
        self.count = 0
        self.attempted = 0
        self.failed = 0
        self.errors: List[str] = []
        self.warm_store: Optional[Path] = None

    def env(self, cache: Path) -> Dict[str, str]:
        env = {key: value for key, value in os.environ.items()
               if not key.startswith("REPRO_")}
        env.update(REPRO_CACHE_DIR=str(cache), REPRO_JOBS=str(JOBS),
                   PYTHONPATH=str(ROOT / "src"))
        env.update(self.workload.env)
        return env

    def launch(self, setup_only: bool = False, traced: bool = False,
               warm: bool = False, keep: bool = False) -> Launch:
        self.count += 1
        where = self.run_dir / f"launch-{self.count}"
        cache = where / "cache"
        cache.mkdir(parents=True)
        if warm:
            shutil.copytree(self.warm_store, cache / "traces")
        status_path = where / "status.json"
        artifact = where / "artifact.json"
        spans = where / "spans"
        cmd = [sys.executable, str(LAUNCHER), "--status", str(status_path),
               "--seed", str(self.seed)]
        if traced:
            spans.mkdir()
            cmd += ["--trace", str(spans)]
        if setup_only:
            cmd.append("--setup-only")
        cmd += [arg.replace("{out}", str(artifact))
                for arg in self.workload.argv]

        timeout = max(1.0, self.deadline - time.monotonic())
        with open(where / "output.log", "wb") as log:
            start = time.monotonic()
            proc = subprocess.Popen(cmd, cwd=where, env=self.env(cache),
                                    stdout=log, stderr=subprocess.STDOUT,
                                    start_new_session=True)
            watchdog = threading.Timer(timeout, _kill_group, (proc.pid,))
            watchdog.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                watchdog.cancel()
            wall = time.monotonic() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        _kill_group(proc.pid)  # nothing of the launch outlives it

        try:
            report = json.loads(status_path.read_text())
        except (OSError, ValueError):
            report = {}
        dispatch = report.get("dispatch")
        result = Launch(
            wall=wall, cpu=usage.ru_utime + usage.ru_stime,
            rss_mb=usage.ru_maxrss / 1024.0,
            setup=dispatch - start if dispatch is not None else None)
        if report.get("missing"):
            print(f"[perfbench] hooks not found: {report['missing']}",
                  file=sys.stderr)
        if setup_only:
            if proc.returncode != 0 or dispatch is None:
                result.errors.append(
                    f"set-up launch exited {proc.returncode} before "
                    "dispatching a job")
        else:
            self._check(result, proc.returncode, report, cache, artifact)
            if traced:
                result.layer_values = layers.layer_metrics(
                    layers.load_spans(spans), proc.pid,
                    sum(p.stat().st_size
                        for p in (cache / "results").glob("*.json")))
        if result.errors:
            self.errors.extend(result.errors)
            tail = (where / "output.log").read_text(errors="replace")[-2000:]
            print(f"[perfbench] launch {self.count} failed: "
                  f"{result.errors}\n{tail}", file=sys.stderr)
        if keep:
            self.warm_store = where / "kept-traces"
            shutil.move(str(cache / "traces"), self.warm_store)
        shutil.rmtree(cache, ignore_errors=True)
        return result

    def _check(self, result: Launch, code: int, report: dict, cache: Path,
               artifact: Path) -> None:
        workload = self.workload
        jobs, digest = results_digest(cache / "results")
        if workload.artifact:
            digest = (hashlib.sha256(artifact.read_bytes()).hexdigest()
                      if artifact.exists() else None)
        result.jobs = jobs
        self.attempted += workload.jobs + 1
        failures = max(0, workload.jobs - jobs)
        failures += report.get("retries", 0) + report.get("rebuilds", 0)
        if code != 0:
            result.errors.append(f"exit code {code}")
            failures = max(failures, 1)
        if jobs != workload.jobs:
            result.errors.append(f"{jobs} of {workload.jobs} jobs simulated")
        mismatch = (self.digests.check(workload.check, digest)
                    if digest else "no output to check")
        if mismatch:
            result.errors.append(mismatch)
            failures += 1
        self.failed += failures


def _kill_group(pid: int) -> None:
    try:
        os.killpg(pid, signal.SIGKILL)
    except (ProcessLookupError, PermissionError):
        pass


def _median(values) -> float:
    return statistics.median(values) if values else 0.0


def measure(bench: Bench, seconds: float, trace: bool) -> Dict[str, float]:
    workload = bench.workload
    if workload.warm:
        # The warm store comes from a cold run of this same code, off
        # the clock; its results are checked like any other launch.
        bench.launch(keep=True)
    setups = [bench.launch(setup_only=True).setup
              for _ in range(SETUP_LAUNCHES)]

    plain: List[Launch] = []
    traced: List[Launch] = []
    start = time.monotonic()
    while True:
        use_trace = trace and len(traced) < len(plain)
        launch = bench.launch(traced=use_trace, warm=workload.warm)
        (traced if use_trace else plain).append(launch)
        elapsed = time.monotonic() - start
        walls = [run.wall for run in plain + traced]
        done = elapsed + _median(walls) > seconds
        if (done and (traced or not trace)) \
                or time.monotonic() + _median(walls) > bench.deadline:
            break

    if trace:
        values: Dict[str, float] = {}
        for name, _unit in layers.METRICS:
            samples = [run.layer_values[name] for run in traced
                       if run.layer_values and name in run.layer_values]
            values[name] = _median(samples)
        values["trace.wall_s"] = _median([run.wall for run in traced])
        values["trace.overhead_s"] = (values["trace.wall_s"]
                                      - _median([run.wall for run in plain]))
        return values

    setups += [run.setup for run in plain]
    return {
        "wall_s": _median([run.wall for run in plain]),
        "setup_s": _median([s for s in setups if s is not None]),
        "cpu_s": _median([run.cpu for run in plain]),
        "sim_instr_per_s": _median(
            [run.jobs * workload.instructions / run.wall for run in plain]),
        "peak_rss_mb": _median([run.rss_mb for run in plain]),
    }


def _print_table(workload: Workload, values: Dict[str, float],
                 units, bench: Bench) -> None:
    print(f"perfbench {workload.name} seed={bench.seed} "
          f"python={platform.python_version()} cpus={os.cpu_count()}")
    for name, unit in units:
        print(f"  {name:<34} {values[name]:>16.6g} {unit}")
    share = bench.failed / bench.attempted if bench.attempted else 0.0
    print(f"  {'failed_share':<34} {share:>16.6g} ratio "
          f"({bench.failed} of {bench.attempted})")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/run.py")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro sources under {ROOT / 'src'}; run from "
              "a checkout of the repository", file=sys.stderr)
        return 2

    deadline = time.monotonic() + RUN_DEADLINE_S
    workload = WORKLOADS[args.workload]
    run_dir = WORK / f"run-{os.getpid()}"
    run_dir.mkdir(parents=True, exist_ok=True)
    try:
        bench = Bench(workload, args.seed, run_dir, deadline)
        values = measure(bench, args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    units = layers.METRICS if args.trace else END_TO_END
    _print_table(workload, values, units, bench)
    correct = not bench.errors
    print(json.dumps({
        "correct": correct,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
