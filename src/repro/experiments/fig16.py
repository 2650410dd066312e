"""Fig 16 (extension): characterization metrics vs family MPKI grid.

Not a paper figure — an extension pairing each workload's
characterization metrics (:mod:`repro.analysis.characterize`) with the
measured MPKI of every predictor family, over the experiment workload
subset *plus* the adversarial stress suite.  On the catalog the grid
shows the metrics tracking the family ranking (the predicted-winner
column); on the ``adv:`` rows it shows the ranking inverting exactly
where each stressor's target family is structurally blind.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.analysis.characterize import FAMILIES, HISTORY_LENGTHS, characterize
from repro.experiments.common import experiment_workloads, format_table
from repro.workloads.adversarial import adversarial_names

CONFIGS = FAMILIES
LABELS = {key: key for key in CONFIGS}


def figure_workloads() -> List[str]:
    """The grid's rows: the experiment subset, then the stress suite,
    each workload once."""
    return list(dict.fromkeys([*experiment_workloads(), *adversarial_names()]))


def run(workloads: Optional[Sequence[str]] = None) -> List[Dict[str, object]]:
    if workloads is None:
        workloads = figure_workloads()

    longest = str(HISTORY_LENGTHS[-1])
    rows: List[Dict[str, object]] = []
    artifact = characterize(workloads, families=CONFIGS)
    for workload, entry in artifact["workloads"].items():
        metrics = entry["metrics"]
        row: Dict[str, object] = {
            "workload": workload,
            "H(br)": metrics["branch_entropy"],
            f"H(hist{longest})": metrics["history_entropy"][longest],
            "H(ctx)": metrics["context_entropy"],
            "skew": metrics["taken_skew"],
        }
        row.update({LABELS[key]: entry["mpki"][key] for key in CONFIGS})
        row["predicted"] = entry["predicted_winner"]
        row["measured"] = entry["measured_winner"]
        rows.append(row)
    return rows


def format_rows(rows: List[Dict[str, object]]) -> str:
    longest = str(HISTORY_LENGTHS[-1])
    return format_table(rows, ["workload", "H(br)", f"H(hist{longest})",
                               "H(ctx)", "skew", *LABELS.values(),
                               "predicted", "measured"])


def jobs():
    """Simulation jobs this figure needs, for parallel prewarming."""
    return [(workload, key)
            for workload in figure_workloads()
            for key in CONFIGS]
