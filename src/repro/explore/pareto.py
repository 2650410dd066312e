"""Pareto-front extraction and the exploration artifact.

A finished search (:class:`~repro.explore.search.SearchOutcome`) scores
every finalist at the full trace budget.  This module turns those
scores into the deliverables: the Pareto front minimising
``(storage_bits, mean MPKI)``, a per-workload winner attribution
("which config wins on Kafka, regardless of the aggregate"), a JSON
artifact, and a fixed-width table for terminals.

The artifact's byte layout is part of the search contract: the golden
fixture (``tests/explore/golden_frontier.json``), its tier-1 test and
the CI ``--check`` run compare the rendered bytes, not parsed
structures, so the same search must serialize identically on every
platform and backend.
Hence ``json.dumps(..., indent=2, sort_keys=True)`` with a trailing
newline, MPKI values rounded to a fixed precision, and infinite storage
encoded as the string ``"inf"`` (JSON has no Infinity literal).
"""

from __future__ import annotations

import json
import math
from typing import Dict, List, Sequence, Union

from repro.explore.cost import storage_cost_bits, storage_kib
from repro.explore.search import Evaluation, SearchOutcome
from repro.experiments.common import format_table

#: Decimal places kept for MPKI in artifacts — enough that distinct
#: misprediction counts at smoke trace lengths stay distinct, small
#: enough that the repr is stable.
MPKI_DECIMALS = 6


def _encode_bits(bits: Union[int, float]) -> Union[int, str]:
    return "inf" if math.isinf(bits) else int(bits)


def pareto_front(finalists: Sequence[Evaluation]) -> List[Evaluation]:
    """Finalists not dominated in (storage bits, mean MPKI).

    A config is dominated if another is no worse on both axes and
    strictly better on at least one.  The front is returned sorted by
    (storage, MPKI, key) — smallest budget first — and equal-cost
    equal-MPKI duplicates all survive (callers see every witness).
    """
    costed = [(storage_cost_bits(evaluation.key), evaluation)
              for evaluation in finalists]
    front = []
    for bits, evaluation in costed:
        dominated = False
        for other_bits, other in costed:
            if other is evaluation:
                continue
            if (other_bits <= bits and other.mean_mpki <= evaluation.mean_mpki
                    and (other_bits < bits
                         or other.mean_mpki < evaluation.mean_mpki)):
                dominated = True
                break
        if not dominated:
            front.append((bits, evaluation))
    front.sort(key=lambda pair: (pair[0], pair[1].mean_mpki, pair[1].key))
    return [evaluation for _, evaluation in front]


def workload_winners(finalists: Sequence[Evaluation]) -> Dict[str, str]:
    """workload -> key of the finalist with the lowest MPKI there.

    Ties break on the key string, so attribution is deterministic even
    when two configs measure identically on a short trace.
    """
    winners: Dict[str, str] = {}
    workloads = finalists[0].per_workload.keys() if finalists else ()
    for workload in workloads:
        best = min(finalists,
                   key=lambda e: (e.per_workload[workload], e.key))
        winners[workload] = best.key
    return winners


def build_artifact(outcome: SearchOutcome, space: str) -> Dict[str, object]:
    """The exploration result as one JSON-ready dict.

    Deterministic in the search outcome: no timestamps, no paths, no
    environment.  ``frontier`` lists the Pareto-optimal configs in
    budget order; ``finalists`` keeps every full-budget config so the
    artifact also answers "what lost, and by how much".
    """
    front = pareto_front(outcome.finalists)
    on_front = {evaluation.key for evaluation in front}

    def encode(evaluation: Evaluation) -> Dict[str, object]:
        bits = storage_cost_bits(evaluation.key)
        return {
            "key": evaluation.key,
            "storage_bits": _encode_bits(bits),
            "mean_mpki": round(evaluation.mean_mpki, MPKI_DECIMALS),
            "mpki": {workload: round(value, MPKI_DECIMALS)
                     for workload, value in
                     evaluation.per_workload.items()},
            "instructions": evaluation.instructions,
            "pareto": evaluation.key in on_front,
        }

    return {
        "space": space,
        "seed": outcome.seed,
        "workloads": list(outcome.workloads),
        "configs": len(outcome.keys),
        "evaluations": outcome.evaluations,
        "schedule": [{"rung": rung.index,
                      "instructions": rung.instructions,
                      "configs": rung.survivors}
                     for rung in outcome.schedule],
        "frontier": [encode(evaluation) for evaluation in front],
        "finalists": [encode(evaluation)
                      for evaluation in outcome.finalists],
        "winners": workload_winners(outcome.finalists),
    }


def render_artifact(artifact: Dict[str, object]) -> str:
    """The artifact's canonical bytes (what goldens diff against)."""
    return json.dumps(artifact, indent=2, sort_keys=True) + "\n"


def render_frontier_table(artifact: Dict[str, object]) -> str:
    """Human-facing summary: finalists table plus per-workload winners."""
    rows = []
    for entry in artifact["finalists"]:
        bits = (math.inf if entry["storage_bits"] == "inf"
                else entry["storage_bits"])
        row: Dict[str, object] = {
            "config": entry["key"],
            "KiB": storage_kib(bits),
            "mean MPKI": entry["mean_mpki"],
            "pareto": "*" if entry["pareto"] else "",
        }
        for workload, value in entry["mpki"].items():
            row[workload] = value
        rows.append(row)
    columns = ["config", "KiB", "mean MPKI", "pareto"]
    columns += list(artifact["workloads"])
    lines = [format_table(rows, columns)]
    winners = artifact["winners"]
    if winners:
        lines.append("")
        lines.append("per-workload winners:")
        for workload in artifact["workloads"]:
            lines.append(f"  {workload}: {winners[workload]}")
    return "\n".join(lines)
