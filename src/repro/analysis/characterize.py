"""Workload characterization: metrics that explain the family ranking.

A numpy pass over a workload's conditional branches computes, per
workload:

* ``taken_rate`` — fraction of conditional executions taken;
* ``branch_entropy`` — execution-weighted mean of the per-PC outcome
  entropy ``H(p_taken)``; 0 = every branch fully biased, 1 = every
  branch a coin flip;
* ``taken_skew`` — execution-weighted mean of ``|2 p_taken - 1|``, the
  bias a bimodal counter can exploit (1 = fully biased);
* ``transition_entropy`` — conditional entropy ``H(outcome | pc, prev
  outcome at pc)``: how much a 1-bit local history explains;
* ``history_entropy[L]`` — conditional entropy ``H(outcome | pc,
  last-L global outcomes)`` for several ``L``: the ceiling on what an
  ``L``-bit global-history predictor (gshare and friends) can learn;
* ``context_entropy`` — conditional entropy ``H(outcome | pc, CCID)``
  where the CCID is LLBP's rolling context signature at the default
  :class:`~repro.llbp.config.LLBPConfig` (the CID column of
  :func:`repro.sim.columns.cid_columns`, which the fused LLBP loop reads
  too): the ceiling on what a context-keyed pattern store can learn
  *without* history.

All entropies are in bits per conditional branch.  The pipeline then
runs each predictor family's MPKI grid through
:func:`repro.parallel.run_jobs` — cached, checked against and recorded
in the checkpoint journal, and fanned across child processes
(``REPRO_JOBS``) — and pins a ``predicted_winner`` derived *only from
the metrics* next to the ``measured_winner`` derived from MPKI.  The
prediction rule is deliberately simple (see :func:`predicted_winner`);
its hit rate over the catalog is asserted in
``tests/analysis/test_characterize.py``.

The artifact is byte-deterministic: floats are rounded to
:data:`DIGITS` places and serialised with sorted keys, so the same
workloads + budget produce the same bytes on any engine and at any
worker count — CI diffs a pooled artifact against a serial one.

CLI::

    python -m repro.analysis.characterize [--workloads all|A,B,...]
        [--instructions N] [--out FILE] [--check FILE] [--no-mpki]
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence

import numpy as np

from repro import telemetry
from repro.llbp.config import LLBPConfig
from repro.llbp.rcr import RollingContextRegister
from repro.sim.columns import cid_columns, cond_history_lanes, context_pushes
from repro.traces.trace import Trace
from repro.traces.types import BranchType
from repro.workloads.catalog import generate_workload, parse_workloads, workload_names

#: Global-history window lengths probed by ``history_entropy``.
HISTORY_LENGTHS = (2, 4, 8, 12)

#: Predictor families ranked by the pipeline, in report order.
FAMILIES = ("gshare", "bimode", "percep", "tsl64", "llbp")

#: Decimal places kept in the artifact — the byte-determinism contract.
DIGITS = 6

#: Artifact schema version; bump when fields change meaning.
SCHEMA = 1


def _entropy(p: float) -> float:
    """Binary entropy H(p) in bits, 0 at the endpoints."""
    if p <= 0.0 or p >= 1.0:
        return 0.0
    return -(p * math.log2(p) + (1.0 - p) * math.log2(1.0 - p))


def _conditional_entropy(buckets: Iterable[List[int]]) -> float:
    """H(outcome | bucket) from per-bucket [not-taken, taken] counts."""
    total = 0
    weighted = 0.0
    for not_taken, taken in buckets:
        n = not_taken + taken
        total += n
        weighted += n * _entropy(taken / n)
    return weighted / total if total else 0.0


def _buckets(pc_ids: np.ndarray, keys: np.ndarray,
             takens: np.ndarray) -> Iterable[List[int]]:
    """``[not-taken, taken]`` counts per distinct ``(pc, key)`` bucket,
    in the order the trace first reaches each bucket."""
    packed = pc_ids * (int(keys.max()) + 1) + keys.astype(np.int64)
    _, first, inverse = np.unique(packed, return_index=True,
                                  return_inverse=True)
    order = np.argsort(first)
    execs = np.bincount(inverse, minlength=len(first))[order]
    taken = np.bincount(inverse[takens], minlength=len(first))[order]
    return zip((execs - taken).tolist(), taken.tolist())


def characterize_trace(trace: Trace) -> Dict[str, object]:
    """The metric computation (pure, engine-independent).

    Each metric buckets the conditional branches by ``(pc, key)`` with
    ``np.unique``; the float sums then run over the buckets in the
    order the trace first reaches them, so they equal a per-branch
    pass bit for bit.  The CCID of each branch comes from LLBP's CID
    column (:func:`repro.sim.columns.cid_columns`).
    """
    cond = trace.types == int(BranchType.COND)
    total = int(np.count_nonzero(cond))
    if total == 0:
        raise ValueError(f"trace {trace.name!r} has no conditional branches")
    pcs, history = cond_history_lanes(trace, HISTORY_LENGTHS[-1])
    takens = trace.takens[cond].astype(bool)
    uniq, first, pc_ids, exec_counts = np.unique(
        pcs, return_index=True, return_inverse=True, return_counts=True)
    taken_counts = np.bincount(pc_ids[takens], minlength=len(uniq))
    order = np.argsort(first)
    branch_entropy = 0.0
    taken_skew = 0.0
    for execs, taken in zip(exec_counts[order].tolist(),
                            taken_counts[order].tolist()):
        p = taken / execs
        branch_entropy += execs * _entropy(p)
        taken_skew += execs * abs(2.0 * p - 1.0)

    # The previous outcome of the same PC (0 at its first execution).
    by_pc = np.argsort(pc_ids, kind="stable")
    prev = np.zeros(total, dtype=np.uint8)
    repeat = pc_ids[by_pc[1:]] == pc_ids[by_pc[:-1]]
    prev[by_pc[1:][repeat]] = takens[by_pc[:-1][repeat]]

    rcr = RollingContextRegister(LLBPConfig())
    pushes = context_pushes(trace, rcr)
    before = np.cumsum(pushes) - pushes
    ccids = cid_columns(trace, rcr)[before[cond]]

    return {
        "cond_branches": total,
        "static_branches": len(uniq),
        "taken_rate": int(np.count_nonzero(takens)) / total,
        "branch_entropy": branch_entropy / total,
        "taken_skew": taken_skew / total,
        "transition_entropy": _conditional_entropy(
            _buckets(pc_ids, prev, takens)),
        "history_entropy": {
            str(length): _conditional_entropy(_buckets(
                pc_ids, history & np.uint64((1 << length) - 1), takens))
            for length in HISTORY_LENGTHS
        },
        "context_entropy": _conditional_entropy(
            _buckets(pc_ids, ccids, takens)),
    }


def characterize_workload(name: str,
                          instructions: Optional[int] = None) -> Dict[str, object]:
    """Metrics for one workload (catalog or ``adv:`` name)."""
    from repro.experiments.runner import _resolve_instructions

    instructions = _resolve_instructions(instructions)
    start = time.perf_counter() if telemetry.enabled() else 0.0
    trace = generate_workload(name, instructions)
    metrics = characterize_trace(trace)
    telemetry.emit("characterize.workload", workload=name,
                   instructions=instructions,
                   seconds=time.perf_counter() - start)
    return metrics


def predicted_winner(metrics: Dict[str, object]) -> str:
    """Name the family the metrics alone say should win (lowest MPKI).

    The rule reads the entropy ladder, most decisive signal first:

    1. If the longest probed window explains nearly everything
       (``history_entropy`` at the deepest probe under 0.05 bits) every
       family lands near zero MPKI and the ranking degenerates to
       warmup noise; per-window counters (gshare) converge in a single
       visit, so gshare is named.
    2. If even the longest probe explains almost nothing (over 0.85
       bits) the structure — if any — lies beyond the probe horizon,
       and only the long-history families can reach it; among them the
       hashed perceptron's threshold training warms fastest.
    3. If the context signature explains materially more than static
       bias (``context_entropy`` below 90% of ``branch_entropy``),
       context-keyed pattern sets pay for themselves: LLBP.
    4. Otherwise lengthening the history is the only lever that still
       pays, which is TAGE's home turf: the base TSL is named.

    Structural failure modes — table aliasing (``adv:alias``),
    cross-segment XOR (``adv:xor``) — are invisible to entropy metrics
    by design, so the rule never names Bi-Mode: its diagnostic role is
    the ``taken_skew`` column plus the adversarial suite itself.  The
    rule's hit rate over the 14-workload catalog is asserted in
    ``tests/analysis/test_characterize.py``.
    """
    ladder = metrics["history_entropy"]
    longest = ladder[str(HISTORY_LENGTHS[-1])]
    context = metrics["context_entropy"]
    bias = metrics["branch_entropy"]

    if longest < 0.05:
        return "gshare"
    if longest > 0.85:
        return "percep"
    if context < 0.9 * bias:
        return "llbp"
    return "tsl64"


def measured_winner(mpki: Dict[str, float],
                    families: Sequence[str] = FAMILIES) -> str:
    """The family with the lowest MPKI (ties: first in ``families``)."""
    return min(families, key=lambda family: (mpki[family], families.index(family)))


def characterize(workloads: Optional[Sequence[str]] = None,
                 instructions: Optional[int] = None,
                 families: Sequence[str] = FAMILIES,
                 max_workers: Optional[int] = None,
                 with_mpki: bool = True) -> Dict[str, object]:
    """Build the full characterization artifact (a plain dict)."""
    from repro.experiments.runner import _resolve_instructions
    # Looked up per call: a wrapper installed on run_jobs after this
    # module is imported (perfbench's tracing hook) must see the call.
    from repro.parallel import SimJob, run_jobs

    if workloads is None:
        workloads = workload_names()
    instructions = _resolve_instructions(instructions)
    start = time.perf_counter() if telemetry.enabled() else 0.0

    results = {}
    if with_mpki:
        results = run_jobs([SimJob(workload, key, instructions)
                            for workload in workloads for key in families],
                           max_workers=max_workers)

    entries: Dict[str, Dict[str, object]] = {}
    for workload in workloads:
        metrics = characterize_workload(workload, instructions)
        entry: Dict[str, object] = {
            "metrics": metrics,
            "predicted_winner": predicted_winner(metrics),
        }
        if with_mpki:
            mpki = {key: results[SimJob(workload, key, instructions)].mpki
                    for key in families}
            entry["mpki"] = mpki
            entry["measured_winner"] = measured_winner(mpki, families)
        entries[workload] = entry

    artifact: Dict[str, object] = {
        "schema": SCHEMA,
        "instructions": instructions,
        "families": list(families) if with_mpki else [],
        "history_lengths": list(HISTORY_LENGTHS),
        "workloads": entries,
    }
    telemetry.emit("characterize.run", workloads=len(entries),
                   instructions=instructions, with_mpki=with_mpki,
                   seconds=time.perf_counter() - start)
    return artifact


# ---------------------------------------------------------------------------
# Serialisation: byte-deterministic by construction.

def _round_floats(value):
    if isinstance(value, float):
        return round(value, DIGITS)
    if isinstance(value, dict):
        return {k: _round_floats(v) for k, v in value.items()}
    if isinstance(value, list):
        return [_round_floats(v) for v in value]
    return value


def artifact_json(artifact: Dict[str, object]) -> str:
    """Canonical serialisation: rounded floats, sorted keys, trailing
    newline — byte-identical across engines, worker counts and platforms."""
    return json.dumps(_round_floats(artifact), sort_keys=True, indent=2) + "\n"


def render_table(artifact: Dict[str, object]) -> str:
    """Fixed-width summary table of the artifact."""
    from repro.experiments.common import format_table

    families = artifact["families"]
    longest = str(artifact["history_lengths"][-1])
    rows = []
    for workload, entry in artifact["workloads"].items():
        metrics = entry["metrics"]
        row = {
            "workload": workload,
            "H(br)": metrics["branch_entropy"],
            "H(trans)": metrics["transition_entropy"],
            f"H(hist{longest})": metrics["history_entropy"][longest],
            "H(ctx)": metrics["context_entropy"],
            "predicted": entry["predicted_winner"],
        }
        if families:
            for family in families:
                row[family] = entry["mpki"][family]
            row["measured"] = entry["measured_winner"]
        rows.append(row)
    columns = ["workload", "H(br)", "H(trans)", f"H(hist{longest})",
               "H(ctx)", *families, "predicted"]
    if families:
        columns.append("measured")
    return format_table(rows, columns)


# ---------------------------------------------------------------------------
# CLI.

def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis.characterize",
        description="Characterize workloads and rank predictor families.")
    parser.add_argument("--workloads", default="all",
                        help="comma list, 'all' (catalog), or 'adv' "
                             "(adversarial suite); adv:* names allowed")
    parser.add_argument("--instructions", type=int, default=None,
                        help="per-workload budget (default: REPRO_INSTRUCTIONS)")
    parser.add_argument("--out", type=Path, default=None,
                        help="write the JSON artifact here")
    parser.add_argument("--check", type=Path, default=None,
                        help="byte-compare the artifact against this file; "
                             "exit 1 on any difference")
    parser.add_argument("--no-mpki", action="store_true",
                        help="metrics only: skip the family MPKI sweep")
    args = parser.parse_args(argv)
    try:
        workloads = parse_workloads(args.workloads)
    except ValueError as error:
        parser.error(f"--workloads: {error}")
    instructions = args.instructions
    if instructions is None:
        from repro.experiments.common import experiment_instructions

        try:
            instructions = experiment_instructions()
        except ValueError as error:
            print(error, file=sys.stderr)
            return 2

    artifact = characterize(workloads, instructions=instructions,
                            with_mpki=not args.no_mpki)
    text = artifact_json(artifact)
    if args.out:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(text)
        print(f"wrote {args.out}")
    if args.check:
        expected = args.check.read_text()
        if text != expected:
            print(f"MISMATCH against {args.check}", file=sys.stderr)
            return 1
        print(f"byte-identical to {args.check}")
    print(render_table(artifact))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
