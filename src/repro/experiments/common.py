"""Shared experiment configuration and formatting."""

from __future__ import annotations

import os
from typing import Dict, List, Sequence

from repro.workloads.catalog import parse_workloads

#: Default instruction budget per workload.  The paper simulates 200M
#: instructions; shapes stabilise much earlier on the proportionally
#: scaled synthetic workloads, and a single-core Python simulation has to
#: be frugal.  Override with REPRO_INSTRUCTIONS.
DEFAULT_INSTRUCTIONS = 800_000

#: Representative subset covering the catalog's extremes: strongest LLBP
#: gain (NodeApp), indirect-heavy (PHPWiki), largest Java working set
#: (Tomcat), easiest (Kafka), and two Google-trace analogues.
DEFAULT_WORKLOADS = ("NodeApp", "PHPWiki", "Tomcat", "Kafka", "Merced", "Whiskey")


def experiment_instructions() -> int:
    value = os.environ.get("REPRO_INSTRUCTIONS")
    if value:
        parsed = int(value)
        if parsed <= 0:
            raise ValueError("REPRO_INSTRUCTIONS must be positive")
        return parsed
    return DEFAULT_INSTRUCTIONS


def experiment_workloads() -> List[str]:
    """``REPRO_WORKLOADS`` (see :func:`parse_workloads`), else the
    default subset; an unknown name raises ``ValueError``."""
    value = os.environ.get("REPRO_WORKLOADS", "").strip()
    if not value:
        return list(DEFAULT_WORKLOADS)
    try:
        return parse_workloads(value)
    except ValueError as error:
        raise ValueError(f"REPRO_WORKLOADS: {error}") from None


def format_table(rows: Sequence[Dict[str, object]],
                 columns: Sequence[str]) -> str:
    """Render rows as a fixed-width text table (for bench output)."""
    if not rows:
        return "(no rows)"

    def fmt(value: object) -> str:
        if isinstance(value, float):
            return f"{value:.3f}"
        return str(value)

    widths = {c: len(c) for c in columns}
    rendered = []
    for row in rows:
        cells = {c: fmt(row.get(c, "")) for c in columns}
        for c in columns:
            widths[c] = max(widths[c], len(cells[c]))
        rendered.append(cells)

    header = "  ".join(c.ljust(widths[c]) for c in columns)
    lines = [header, "  ".join("-" * widths[c] for c in columns)]
    for cells in rendered:
        lines.append("  ".join(cells[c].ljust(widths[c]) for c in columns))
    return "\n".join(lines)
