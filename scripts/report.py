#!/usr/bin/env python
"""Summarize a run's telemetry events.

Run from the repo root::

    python scripts/report.py telemetry/                 # print the report
    python scripts/report.py telemetry/ -o telemetry_summary.json

Takes the directory (or single JSONL file) that a telemetry-enabled run
wrote (``REPRO_TELEMETRY=DIR`` or ``python -m repro.experiments
--telemetry``), merges the per-process event files, and prints the
human-readable report: per-phase simulation timings and branches/sec,
result/trace cache hit rates, parallel worker utilization, LLBP
pattern-buffer and prefetch counters, and per-figure wall clock.

A bumpy run additionally gets a ``robustness`` section: retries by
error kind (with total backoff time), job timeouts, workers lost,
degradation to in-process attempts, injected chaos faults, corrupt cache
entries re-run, and resume accounting (how many of the run's simulations
the checkpoint journal already recorded).  A clean run omits the
section.

``-o`` additionally writes the machine-readable summary JSON — the
artifact CI uploads and later runs can diff against.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO_ROOT / "src"))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("path", type=Path,
                        help="telemetry directory (or one events-*.jsonl)")
    parser.add_argument("-o", "--output", type=Path, default=None,
                        metavar="JSON",
                        help="also write the machine-readable summary here")
    parser.add_argument("--quiet", action="store_true",
                        help="suppress the human-readable report")
    args = parser.parse_args(argv)

    from repro.telemetry import (format_summary, load_events, summarize,
                                 write_summary)

    if not args.path.exists():
        print(f"no telemetry at {args.path}", file=sys.stderr)
        return 2
    events = load_events(args.path)
    if not events:
        print(f"no events found under {args.path}", file=sys.stderr)
        return 2

    summary = summarize(events)
    if not args.quiet:
        print(format_summary(summary))
    if args.output is not None:
        write_summary(summary, args.output)
        if not args.quiet:
            print(f"\nwrote {args.output}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
