"""Design-space exploration from the command line.

Usage::

    python -m repro.explore [--budget NAME] [--space SPEC] [--seed N]
                            [--workloads W1,W2] [--out FILE]
                            [--check FILE] [--jobs N] [--engine NAME]
                            [--telemetry [DIR]] [--quiet]

``--budget`` picks how much simulation to spend (``smoke`` / ``short``
/ ``full``); ``--space`` picks what to search — a built-in space name
(see ``repro.explore.space.SPACES``) or a ``;``-separated list of
registry keys.  The search runs a successive-halving schedule through
the standard executor, so ``--jobs`` and ``--engine`` (default
``array``) mean exactly what they do for ``python -m
repro.experiments``.  Every search checks the cached results it serves
against its checkpoint journal (kept at ``explore-journal.jsonl`` next
to the result cache, separate from the experiments journal), so
rerunning an interrupted search re-executes only what it had not
finished.

The ``smoke`` budget pins its workloads, trace lengths and search space
regardless of REPRO_WORKLOADS / REPRO_INSTRUCTIONS: it exists to
reproduce ``tests/explore/golden_frontier.json`` byte-identically on
every machine and engine, at any ``--jobs``.  ``--out FILE`` writes the
JSON artifact (``-`` for stdout); ``--check FILE`` instead diffs the
bytes the search produced against an existing artifact and fails on any
mismatch — that is the bench/CI gate.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys
from pathlib import Path
from typing import Optional, Tuple

from repro import parallel, telemetry
from repro.experiments import journal as journal_mod
from repro.experiments.common import (
    experiment_instructions,
    experiment_workloads,
)
from repro.explore import pareto, search, space as space_mod
from repro.parallel.retry import RetryPolicy
from repro.sim import engine as engine_mod


@dataclasses.dataclass(frozen=True)
class Budget:
    """How much simulation a search may spend, and on what.

    ``workloads`` is ``None`` for "whatever REPRO_WORKLOADS says";
    likewise ``full_instructions``.  The smoke budget pins both (and
    the space) so its frontier is reproducible everywhere.
    """

    name: str
    base_instructions: int
    full_instructions: Optional[int]
    eta: int = 3
    min_survivors: int = 3
    workloads: Optional[Tuple[str, ...]] = None
    space: Optional[str] = None

    def resolve_workloads(self) -> Tuple[str, ...]:
        if self.workloads is not None:
            return self.workloads
        return tuple(experiment_workloads())

    def resolve_full_instructions(self) -> int:
        if self.full_instructions is not None:
            return self.full_instructions
        return max(self.base_instructions, experiment_instructions())


BUDGETS = {
    budget.name: budget for budget in (
        # The golden-fixture budget: everything pinned, ~7-config space.
        Budget("smoke", base_instructions=30_000, full_instructions=90_000,
               workloads=("NodeApp", "Kafka"), space="smoke"),
        # A real mini-search: short traces, env-selected workloads.
        Budget("short", base_instructions=100_000,
               full_instructions=400_000),
        # Full-length promotion runs (REPRO_INSTRUCTIONS at the top rung).
        Budget("full", base_instructions=100_000, full_instructions=None),
    )
}


def journal_path() -> Path:
    """The explore journal, beside (not shared with) the experiments one."""
    return journal_mod.default_path().with_name("explore-journal.jsonl")


def main(argv) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.explore",
        description="Search predictor configurations for the MPKI/storage "
                    "Pareto front.")
    parser.add_argument("--budget", choices=sorted(BUDGETS), default="smoke",
                        help="simulation budget preset (default: smoke, "
                             "the pinned golden-fixture search)")
    parser.add_argument("--space", default=None, metavar="SPEC",
                        help="search space: a built-in name "
                             f"({', '.join(space_mod.SPACES)}) or a "
                             "';'-separated list of registry keys "
                             "(default: the budget's space, else 'default')")
    parser.add_argument("--workloads", default=None, metavar="W1,W2",
                        help="comma-separated workloads to score on "
                             "(default: the budget's pin, else "
                             "REPRO_WORKLOADS)")
    parser.add_argument("--seed", type=int, default=0,
                        help="evaluation-order shuffle seed (default: 0)")
    parser.add_argument("--out", default=None, metavar="FILE",
                        help="write the JSON artifact to FILE ('-' for "
                             "stdout)")
    parser.add_argument("--check", default=None, metavar="FILE",
                        help="diff this search's artifact bytes against "
                             "FILE and exit non-zero on any mismatch")
    parser.add_argument("-j", "--jobs", type=int, default=None,
                        help="child processes at a time (default: REPRO_JOBS "
                             "or the CPU count; 1 runs in this process)")
    parser.add_argument("--engine", choices=engine_mod.ENGINES, default=None,
                        help="simulation engine (default: REPRO_ENGINE or "
                             "array; engines are bit-identical)")
    parser.add_argument("--telemetry", nargs="?", const="telemetry",
                        default=None, metavar="DIR",
                        help="record explore.* telemetry as JSONL under "
                             "DIR (default: ./telemetry)")
    parser.add_argument("--quiet", action="store_true",
                        help="suppress the rendered frontier table")
    args = parser.parse_args(argv)

    if args.telemetry is not None:
        telemetry.configure(args.telemetry)
    if args.engine is not None:
        os.environ[engine_mod.ENGINE_ENV_VAR] = args.engine

    budget = BUDGETS[args.budget]
    space_spec = args.space or budget.space or "default"
    try:
        search_space = space_mod.resolve_space(space_spec)
        keys = search_space.expand()
    except (KeyError, ValueError) as error:
        print(f"invalid --space {space_spec!r}: {error}", file=sys.stderr)
        return 2
    if args.workloads is not None:
        workloads = tuple(name.strip()
                          for name in args.workloads.split(",")
                          if name.strip())
    else:
        workloads = budget.resolve_workloads()
    if not workloads:
        print("no workloads selected", file=sys.stderr)
        return 2

    schedule = search.halving_schedule(
        len(keys), budget.base_instructions,
        budget.resolve_full_instructions(), eta=budget.eta,
        min_survivors=budget.min_survivors)

    journal = journal_mod.RunJournal.open(journal_path())
    workers = args.jobs if args.jobs is not None else parallel.default_jobs()
    try:
        with telemetry.phase("explore.run", budget=budget.name,
                             space=search_space.name, configs=len(keys)):
            outcome = search.run_search(
                keys, workloads, schedule, seed=args.seed,
                max_workers=workers, journal=journal,
                policy=RetryPolicy.from_env())
    except KeyboardInterrupt:
        print(f"\ninterrupted — completed simulations are journalled in "
              f"{journal.path};\nrerun the same command to resume: "
              f"python -m repro.explore " + " ".join(argv), file=sys.stderr)
        return 130
    finally:
        journal.close()

    artifact = pareto.build_artifact(outcome, search_space.name)
    rendered = pareto.render_artifact(artifact)

    if args.out == "-":
        sys.stdout.write(rendered)
    elif args.out is not None:
        out = Path(args.out)
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(rendered)
        print(f"[explore] artifact written to {out}")

    if not args.quiet:
        print(pareto.render_frontier_table(artifact))

    if args.check is not None:
        expected = Path(args.check).read_text()
        if rendered != expected:
            print(f"[explore] FAIL: artifact differs from {args.check}",
                  file=sys.stderr)
            return 1
        print(f"[explore] artifact matches {args.check}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
