"""Regenerate the paper's full evaluation from the command line.

Usage::

    python -m repro.experiments [fig01 fig02 ... table3] [--jobs N]
                                [--engine NAME] [--telemetry [DIR]]
                                [--backend NAME] [--workers SPEC]
                                [--resume] [--retries N] [--job-timeout S]

With no experiment names every experiment runs (simulation results are
cached, so reruns are cheap).  ``--jobs`` controls how many worker
processes prewarm the result cache before the (serial) formatting pass;
it defaults to the CPU count, or REPRO_JOBS when set.  Honours
REPRO_WORKLOADS / REPRO_INSTRUCTIONS.

Simulations run on the array engine by default — bit-identical to the
Python engine and several times faster for the TAGE-SC-L/LLBP families.
``--engine python`` (or ``REPRO_ENGINE=python``) runs everything on the
Python engine, the oracle.

``--backend tcp`` (or ``REPRO_BACKEND=tcp``) shards the prewarm across
``python -m repro.worker`` processes — ``--workers`` names either a
loopback worker count or ``host:port,...`` listeners on other machines
(REPRO_BACKEND_WORKERS) — byte-identical to a local run, with traces
shared through the content-addressed store.

The run is fault-tolerant: failed simulations retry with backoff
(``--retries`` / REPRO_RETRIES), hung workers are killed after
``--job-timeout`` seconds (REPRO_JOB_TIMEOUT) and their pool rebuilt,
and completed jobs are checkpointed to a journal next to the result
cache.  After a crash or Ctrl-C, ``--resume`` re-executes only the
unfinished jobs — and re-runs any cached result whose bytes no longer
match the digest the journal recorded.

``--telemetry [DIR]`` (or ``REPRO_TELEMETRY=DIR``) records structured
events — per-figure timings, simulation phases, cache hits, worker
activity, retry/timeout/resume accounting — as JSONL under ``DIR``
(default ``telemetry/``); summarize them afterwards with
``python scripts/report.py DIR``.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys
import time

from repro import parallel, telemetry
from repro.parallel import backend as backend_mod
from repro.sim import engine as engine_mod
from repro.experiments import (
    fig01, fig02, fig03, fig05, fig09, fig10, fig11, fig12, fig13, fig14,
    fig15, fig16, tables,
)
from repro.experiments.journal import RunJournal
from repro.parallel.retry import RetryPolicy

_EXPERIMENTS = {
    "table1": ("Table I — workloads",
               lambda: tables.format_table1(tables.table1()), None),
    "table2": ("Table II — simulated core",
               lambda: tables.format_table2(tables.table2()), None),
    "table3": ("Table III — latency/energy",
               lambda: tables.format_table3(tables.table3()), None),
    "fig01": ("Fig 1 — wasted cycles",
              lambda: fig01.format_rows(fig01.run()), fig01.jobs),
    "fig02": ("Fig 2 — TAGE in the limit",
              lambda: fig02.format_rows(fig02.run()), fig02.jobs),
    "fig03": ("Fig 3 — working set (Tomcat)",
              lambda: fig03.format_rows(fig03.run()), fig03.jobs),
    "fig05": ("Fig 5 — context locality",
              lambda: fig05.format_rows(fig05.run()), fig05.jobs),
    "fig09": ("Fig 9 — MPKI reduction",
              lambda: fig09.format_rows(fig09.run()), fig09.jobs),
    "fig10": ("Fig 10 — speedup",
              lambda: fig10.format_rows(fig10.run()), fig10.jobs),
    "fig11": ("Fig 11 — bandwidth",
              lambda: fig11.format_rows(fig11.run()), fig11.jobs),
    "fig12": ("Fig 12 — energy",
              lambda: fig12.format_rows(fig12.run()), fig12.jobs),
    "fig13": ("Fig 13 — CID sensitivity",
              lambda: fig13.format_rows(fig13.run()), fig13.jobs),
    "fig14": ("Fig 14 — pattern sets",
              lambda: fig14.format_rows(fig14.run()), fig14.jobs),
    "fig15": ("Fig 15 — LLBP effectiveness",
              lambda: fig15.format_rows(fig15.run()), fig15.jobs),
    "fig16": ("Fig 16 — scenario characterization grid (extension)",
              lambda: fig16.format_rows(fig16.run()), fig16.jobs),
}


def _prewarm(names, workers: int, policy: RetryPolicy,
             journal: RunJournal, resume: bool) -> None:
    """Fan every named experiment's simulations across worker processes.

    The experiments themselves then run serially against a warm cache,
    so their output (and ordering) is unchanged from a serial run.
    With ``resume``, jobs the journal already records as complete are
    served from cache (after digest verification) instead of re-run.
    """
    pairs = []
    for name in names:
        manifest = _EXPERIMENTS[name][2]
        if manifest is not None:
            pairs.extend(manifest())
    jobs = parallel.make_jobs(pairs)
    unique = list(dict.fromkeys(jobs))
    if resume:
        journaled = sum(1 for job in unique if tuple(job) in journal)
        telemetry.emit("experiment.resume", journaled=journaled,
                       total=len(unique), journal=str(journal.path))
        if journaled:
            print(f"[resume] journal {journal.path}: {journaled}/"
                  f"{len(unique)} simulations already complete")
    if not unique:
        return
    start = time.time()
    parallel.run_jobs(jobs, max_workers=workers, policy=policy,
                      journal=journal)
    if workers > 1:
        print(f"[prewarm] {len(unique)} simulations with {workers} workers "
              f"({time.time() - start:.1f}s)")


def main(argv) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments",
        description="Regenerate the paper's figures and tables.")
    parser.add_argument("names", nargs="*", metavar="experiment",
                        help="experiments to run (default: all)")
    parser.add_argument("-j", "--jobs", type=int, default=None,
                        help="worker processes for the simulation prewarm "
                             "(default: REPRO_JOBS or the CPU count; "
                             "1 disables the pool)")
    parser.add_argument("--telemetry", nargs="?", const="telemetry",
                        default=None, metavar="DIR",
                        help="record structured run telemetry as JSONL "
                             "under DIR (default: ./telemetry)")
    parser.add_argument("--engine", choices=engine_mod.ENGINES,
                        default=None,
                        help="simulation engine for every run (default: "
                             "REPRO_ENGINE or array); the array engine "
                             "is bit-identical where supported and falls "
                             "back to python elsewhere")
    parser.add_argument("--backend", choices=("local", "tcp"),
                        default=None,
                        help="execution backend for the simulation prewarm "
                             "(default: REPRO_BACKEND or local); tcp "
                             "shards batched tasks across repro.worker "
                             "processes")
    parser.add_argument("--workers", default=None, metavar="SPEC",
                        help="tcp-backend workers: a loopback worker count "
                             "or a comma-separated host:port list of "
                             "'python -m repro.worker --listen' processes "
                             "(default: REPRO_BACKEND_WORKERS; implies "
                             "--backend tcp)")
    parser.add_argument("--resume", action="store_true",
                        help="continue an interrupted run: skip every "
                             "simulation the checkpoint journal records "
                             "as complete (and whose cached result still "
                             "matches its digest)")
    parser.add_argument("--retries", type=int, default=None, metavar="N",
                        help="attempts per simulation before giving up "
                             "(default: REPRO_RETRIES or 3)")
    parser.add_argument("--job-timeout", type=float, default=None,
                        metavar="SECONDS",
                        help="kill and retry any simulation running longer "
                             "than this (default: REPRO_JOB_TIMEOUT or "
                             "no timeout)")
    args = parser.parse_args(argv)

    names = args.names or list(_EXPERIMENTS)
    unknown = [n for n in names if n not in _EXPERIMENTS]
    if unknown:
        print(f"unknown experiments: {unknown}; known: {list(_EXPERIMENTS)}")
        return 2

    if args.telemetry is not None:
        # Via the environment, so prewarm workers inherit it.
        telemetry.configure(args.telemetry)

    if args.engine is not None:
        # Also via the environment: run_simulation consults REPRO_ENGINE
        # in-process and in every prewarm worker.
        os.environ[engine_mod.ENGINE_ENV_VAR] = args.engine

    if args.workers is not None:
        # Like --engine: the executor consults REPRO_BACKEND* when it
        # builds the backend for the prewarm batch.
        os.environ[backend_mod.ENV_WORKERS] = args.workers
        if args.backend is None:
            args.backend = "tcp"
    if args.backend is not None:
        os.environ[backend_mod.ENV_BACKEND] = args.backend

    policy = RetryPolicy.from_env()
    overrides = {}
    if args.retries is not None:
        overrides["max_attempts"] = max(1, args.retries)
    if args.job_timeout is not None:
        overrides["timeout"] = (args.job_timeout
                                if args.job_timeout > 0 else None)
    if overrides:
        policy = dataclasses.replace(policy, **overrides)

    journal = RunJournal.open(resume=args.resume)
    workers = args.jobs if args.jobs is not None else parallel.default_jobs()
    interrupted = False
    try:
        # Even a serial run goes through the prewarm pass: it is the
        # only path that records completions to the journal and
        # re-verifies cached results against their journalled digests.
        with telemetry.phase("experiment.prewarm", experiments=names,
                             workers=workers):
            _prewarm(names, workers, policy, journal, args.resume)

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
        telemetry.emit("experiment.interrupted", journaled=len(journal),
                       journal=str(journal.path))
        print(f"\ninterrupted — completed work is journalled in "
              f"{journal.path};\nresume with: python -m repro.experiments "
              f"--resume " + " ".join(args.names), file=sys.stderr)
    finally:
        parallel.shutdown()
        journal.close()
        if args.telemetry is not None:
            print(f"\n[telemetry] events in {args.telemetry}/ — summarize "
                  f"with: python scripts/report.py {args.telemetry}")
    return 130 if interrupted else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
