"""Small statistics helpers shared by the analysis and experiment layers."""

from __future__ import annotations

import math
from typing import Iterable, Sequence


def percentile(sorted_values: Sequence[float], p: float) -> float:
    """Nearest-rank percentile ``p`` in [0, 100] of pre-sorted values."""
    if not sorted_values:
        raise ValueError("percentile of empty sequence")
    if not 0 <= p <= 100:
        raise ValueError("percentile must be in [0, 100]")
    rank = max(1, math.ceil(p / 100.0 * len(sorted_values)))
    return sorted_values[rank - 1]


def geomean(values: Iterable[float]) -> float:
    """Geometric mean; all values must be positive."""
    vals = list(values)
    if not vals:
        raise ValueError("geomean of empty sequence")
    if any(v <= 0 for v in vals):
        raise ValueError("geomean requires positive values")
    return math.exp(sum(math.log(v) for v in vals) / len(vals))


def mean(values: Iterable[float]) -> float:
    vals = list(values)
    if not vals:
        raise ValueError("mean of empty sequence")
    return sum(vals) / len(vals)


def mpki(mispredictions: int, instructions: int) -> float:
    """Mispredictions per kilo-instruction."""
    if instructions <= 0:
        raise ValueError("instruction count must be positive")
    return 1000.0 * mispredictions / instructions
