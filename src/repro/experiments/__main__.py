"""Regenerate the paper's full evaluation from the command line.

Usage::

    python -m repro.experiments [fig01 fig02 ... table3] [--jobs N]
                                [--engine NAME] [--telemetry [DIR]]
                                [--retries N] [--job-timeout S]

With no experiment names every experiment runs (simulation results are
cached, so reruns are cheap).  ``--jobs`` controls how many child
processes at a time prewarm the result cache before the (serial)
formatting pass;
it defaults to the CPU count, or REPRO_JOBS when set.  Honours
REPRO_WORKLOADS / REPRO_INSTRUCTIONS.

Simulations run on the array engine by default — bit-identical to the
Python engine and several times faster for the TAGE-SC-L/LLBP families.
``--engine python`` (or ``REPRO_ENGINE=python``) runs everything on the
Python engine, the oracle.

The run is fault-tolerant: failed simulations retry with backoff
(``--retries`` / REPRO_RETRIES), a hung simulation's child is killed
after ``--job-timeout`` seconds per job (REPRO_JOB_TIMEOUT) and only its
task retried, and completed jobs are checkpointed to a journal next to
the result cache (by :func:`repro.parallel.run_jobs`, like every other
simulation grid).  With ``--jobs 1`` simulations run in this process,
where there is no child for the timeout to kill.  Every run checks the
cached results it serves against the journal's digests and re-runs any
whose bytes no longer match, so after a crash or Ctrl-C, rerunning the
same command re-executes only the unfinished jobs.

``--telemetry [DIR]`` (or ``REPRO_TELEMETRY=DIR``) records structured
events — per-figure timings, simulation runs, cache hits, worker
activity, retry/timeout/resume accounting — as JSONL under ``DIR``
(default ``telemetry/``); summarize them afterwards with
``python scripts/report.py DIR``.
"""

from __future__ import annotations

import argparse
import dataclasses
import importlib
import os
import sys
import time

from repro import parallel, telemetry
from repro.sim import engine as engine_mod
from repro.experiments.common import experiment_workloads
from repro.experiments.journal import RunJournal
from repro.parallel.retry import RetryPolicy


def _module(name: str):
    """``repro.experiments.<name>``, imported on first use, so a run
    loads only the experiments it names."""
    return importlib.import_module(f"repro.experiments.{name}")


def _table(number: int):
    """The runner of Table ``number``: ``format_tableN(tableN())`` from
    :mod:`repro.experiments.tables`."""
    def run():
        tables = _module("tables")
        return getattr(tables, f"format_table{number}")(
            getattr(tables, f"table{number}")())
    return run


def _figure(name: str):
    """``(runner, manifest)`` of figure module ``name``."""
    return (lambda: _module(name).format_rows(_module(name).run()),
            lambda: _module(name).jobs())


#: Experiment name -> ``(title, runner, manifest)``.  The runner returns
#: the printed body; the manifest (None for the tables, which simulate
#: nothing) lists the ``(workload, key)`` jobs to prewarm.  Calling it
#: imports the figure's module before the first ``run_jobs``, so the
#: prewarm's child processes inherit it.
_EXPERIMENTS = {
    "table1": ("Table I — workloads", _table(1), None),
    "table2": ("Table II — simulated core", _table(2), None),
    "table3": ("Table III — latency/energy", _table(3), None),
    "fig01": ("Fig 1 — wasted cycles", *_figure("fig01")),
    "fig02": ("Fig 2 — TAGE in the limit", *_figure("fig02")),
    "fig03": ("Fig 3 — working set (Tomcat)", *_figure("fig03")),
    "fig05": ("Fig 5 — context locality", *_figure("fig05")),
    "fig09": ("Fig 9 — MPKI reduction", *_figure("fig09")),
    "fig10": ("Fig 10 — speedup", *_figure("fig10")),
    "fig11": ("Fig 11 — bandwidth", *_figure("fig11")),
    "fig12": ("Fig 12 — energy", *_figure("fig12")),
    "fig13": ("Fig 13 — CID sensitivity", *_figure("fig13")),
    "fig14": ("Fig 14 — pattern sets", *_figure("fig14")),
    "fig15": ("Fig 15 — LLBP effectiveness", *_figure("fig15")),
    "fig16": ("Fig 16 — scenario characterization grid (extension)",
              *_figure("fig16")),
}


def _prewarm(names, workers: int, policy: RetryPolicy) -> None:
    """Fan every named experiment's simulations across worker processes.

    The experiments themselves then run serially against a warm cache,
    so their output (and ordering) is unchanged from a serial run.
    Jobs the journal records whose results are still cached are served
    from cache after their digests are checked; the rest are simulated.
    """
    from repro.experiments import runner

    pairs = []
    for name in names:
        manifest = _EXPERIMENTS[name][2]
        if manifest is not None:
            pairs.extend(manifest())
    jobs = parallel.make_jobs(pairs)
    unique = list(dict.fromkeys(jobs))
    with RunJournal.open() as journal:  # read only: run_jobs records
        # The peek loads each cached result into memory, where run_jobs
        # finds it without reading the file again.
        journaled = sum(1 for job in unique if job in journal
                        and runner.peek_result(*job) is not None)
    if journaled:
        telemetry.emit("experiment.resume", journaled=journaled,
                       total=len(unique), journal=str(journal.path))
        print(f"[resume] journal {journal.path}: {journaled}/"
              f"{len(unique)} simulations already complete")
    if not unique:
        return
    start = time.time()
    parallel.run_jobs(jobs, max_workers=workers, policy=policy)
    if workers > 1:
        print(f"[prewarm] {len(unique)} simulations with {workers} workers "
              f"({time.time() - start:.1f}s)")


def build_parser() -> argparse.ArgumentParser:
    """The command line; EXPERIMENTS.md's flag table must match it."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments",
        description="Regenerate the paper's figures and tables.")
    parser.add_argument("names", nargs="*", metavar="experiment",
                        help="experiments to run (default: all)")
    parser.add_argument("-j", "--jobs", type=int, default=None,
                        help="child processes at a time for the simulation "
                             "prewarm (default: REPRO_JOBS or the CPU count; "
                             "1 runs it in this process)")
    parser.add_argument("--telemetry", nargs="?", const="telemetry",
                        default=None, metavar="DIR",
                        help="record structured run telemetry as JSONL "
                             "under DIR (default: ./telemetry)")
    parser.add_argument("--engine", choices=engine_mod.ENGINES,
                        default=None,
                        help="simulation engine for every run (default: "
                             "REPRO_ENGINE or array); the engines are "
                             "bit-identical on every figure")
    parser.add_argument("--retries", type=int, default=None, metavar="N",
                        help="attempts per simulation before giving up "
                             "(default: REPRO_RETRIES or 3)")
    parser.add_argument("--job-timeout", type=float, default=None,
                        metavar="SECONDS",
                        help="kill and retry any simulation running longer "
                             "than this in a child process (default: "
                             "REPRO_JOB_TIMEOUT or no timeout)")
    return parser


def main(argv) -> int:
    args = build_parser().parse_args(argv)

    names = args.names or list(_EXPERIMENTS)
    unknown = [n for n in names if n not in _EXPERIMENTS]
    if unknown:
        print(f"unknown experiments: {unknown}; known: {list(_EXPERIMENTS)}")
        return 2
    try:
        experiment_workloads()
    except ValueError as error:
        print(error, file=sys.stderr)
        return 2

    if args.telemetry is not None:
        # Via the environment, so prewarm workers inherit it.
        telemetry.configure(args.telemetry)

    if args.engine is not None:
        # Also via the environment: run_simulation consults REPRO_ENGINE
        # in-process and in every prewarm worker.
        os.environ[engine_mod.ENGINE_ENV_VAR] = args.engine

    policy = RetryPolicy.from_env()
    overrides = {}
    if args.retries is not None:
        overrides["max_attempts"] = max(1, args.retries)
    if args.job_timeout is not None:
        overrides["timeout"] = (args.job_timeout
                                if args.job_timeout > 0 else None)
    if overrides:
        policy = dataclasses.replace(policy, **overrides)

    workers = args.jobs if args.jobs is not None else parallel.default_jobs()
    interrupted = False
    try:
        # Even a serial run goes through the prewarm pass: its run_jobs
        # call checks every result the figures will read against the
        # journal, and records it there.
        with telemetry.phase("experiment.prewarm", experiments=names,
                             workers=workers):
            _prewarm(names, workers, policy)

        run_start = time.time()
        for i, name in enumerate(names):
            title, runner, _ = _EXPERIMENTS[name]
            # Heartbeat *before* each experiment: a consumer tailing the
            # JSONL sees progress even while a long figure is running.
            telemetry.emit("experiment.heartbeat", completed=i,
                           total=len(names), current=name)
            start = time.time()
            body = runner()
            elapsed = time.time() - start
            telemetry.emit("experiment.figure", name=name, title=title,
                           seconds=elapsed)
            print(f"\n=== {title} ({elapsed:.1f}s) ===")
            print(body)
        telemetry.emit("experiment.run", experiments=names,
                       seconds=time.time() - run_start)
    except KeyboardInterrupt:
        interrupted = True
        with RunJournal.open() as journal:
            telemetry.emit("experiment.interrupted", journaled=len(journal),
                           journal=str(journal.path))
        print(f"\ninterrupted — completed work is journalled in "
              f"{journal.path};\nrerun the same command to resume: "
              f"python -m repro.experiments " + " ".join(argv),
              file=sys.stderr)
    finally:
        if args.telemetry is not None:
            print(f"\n[telemetry] events in {args.telemetry}/ — summarize "
                  f"with: python scripts/report.py {args.telemetry}")
    return 130 if interrupted else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
