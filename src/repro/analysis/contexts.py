"""Context-locality validation (paper §IV, Fig 5).

The study re-runs the useful-pattern tracing of §II-D, but attributes
every useful pattern of the most-mispredicted branches to the *program
context* in which it proved useful — the hash of the ``W`` most recent
unconditional-branch PCs.  The paper's result: deeper contexts slice the
pattern space so that, at W=32, 95% of (branch, context) pairs need at
most nine patterns.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Set, Tuple

import numpy as np

from repro.analysis.working_set import baseline_order, traced_inf_tage
from repro.common.stats import percentile
from repro.predictors.infinite import PatternKey
from repro.sim.results import SimulationResult
from repro.traces.trace import Trace
from repro.traces.types import BranchType

_UNCOND_TYPES = [
    int(BranchType.JUMP), int(BranchType.CALL), int(BranchType.RET),
    int(BranchType.IND_JUMP), int(BranchType.IND_CALL),
]


@dataclass
class ContextStudyResult:
    """Patterns-per-context distribution for one context depth W."""

    window: int
    counts: List[int]  # unique useful patterns per (branch, context) pair

    def percentile(self, p: float) -> int:
        if not self.counts:
            return 0
        return int(percentile(sorted(self.counts), p))

    @property
    def p50(self) -> int:
        return self.percentile(50)

    @property
    def p95(self) -> int:
        return self.percentile(95)


def _context_hash(window: Sequence[int], bits: int = 30,
                  shift: int = 2) -> int:
    value = 0
    for position, pc in enumerate(reversed(window)):
        value ^= (pc >> 2) << (shift * position)
    mask = (1 << bits) - 1
    return (value ^ (value >> bits)) & mask


def patterns_per_context_study(
    trace: Trace,
    baseline: SimulationResult,
    windows: Sequence[int] = (0, 2, 4, 8, 16, 32),
    top_branches: int = 128,
    warmup_instructions: int = 0,
) -> List[ContextStudyResult]:
    """Reproduce Fig 5 for ``trace``.

    Runs one Inf-TAGE simulation; every useful-pattern event for a
    top-``top_branches`` branch is attributed, per requested window depth
    W, to the context formed by the last W unconditional-branch PCs
    before it (W=0: a single global context — the paging-scheme view).
    """
    top: Set[int] = set(baseline_order(baseline)[:top_branches])
    events = traced_inf_tage(trace, warmup_instructions).useful_events

    # One pass over the trace: how many unconditional branches precede
    # each conditional branch, and their PCs behind an all-zero window.
    uncond = np.isin(trace.types, _UNCOND_TYPES)
    seen = np.cumsum(uncond)[trace.types == 0].tolist()
    pad = max(max(windows), 1)
    window_pcs = [0] * pad + trace.pcs[uncond].tolist()

    # (W, branch, context) -> set of patterns
    patterns: Dict[Tuple[int, int, int], Set[PatternKey]] = {}
    # Window end -> the context at every depth W, hashed once.
    contexts: Dict[int, List[int]] = {}
    for ordinal, pc, pattern in events:
        if pc not in top:
            continue
        end = pad + seen[ordinal]
        at = contexts.get(end)
        if at is None:
            at = contexts[end] = [
                _context_hash(window_pcs[end - w:end]) if w else 0
                for w in windows]
        for w, context in zip(windows, at):
            patterns.setdefault((w, pc, context), set()).add(pattern)

    results = []
    for w in windows:
        counts = [len(v) for (ww, _pc, _ctx), v in patterns.items() if ww == w]
        results.append(ContextStudyResult(window=w, counts=counts))
    return results
