"""Shared low-level building blocks used across the predictor stack.

This package contains the pieces that every predictor level shares:
history registers and their incremental "folded" hashes (the core of
TAGE-style index/tag computation), a deterministic PRNG for allocation
decisions, and simple statistics helpers.
"""

from repro.common.bitops import FoldedHistory, HistoryBuffer, fold_bits
from repro.common.rng import XorShift32

__all__ = [
    "FoldedHistory",
    "HistoryBuffer",
    "fold_bits",
    "XorShift32",
]
