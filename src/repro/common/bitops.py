"""Bit-level helpers: history buffers and folded-history registers.

TAGE (and LLBP, which reuses TAGE's pattern-matching machinery) hashes a
branch PC together with the most recent ``L`` bits of global branch
history.  Recomputing that hash from scratch for history lengths of up to
3000 bits on every prediction would be prohibitively slow, so real
implementations maintain *folded* history registers: an ``L``-bit history
compressed into ``width`` bits by XOR-folding, updated incrementally in
O(1) as bits enter and leave the history window.  This module implements
that scheme exactly as described by Michaud's PPM-like predictor and
Seznec's TAGE papers.
"""

from __future__ import annotations


def fold_bits(bits: int, length: int, width: int) -> int:
    """XOR-fold the ``length`` low bits of ``bits`` into ``width`` bits.

    This is the reference (non-incremental) definition of what a
    :class:`FoldedHistory` register holds; it exists mainly so tests can
    cross-check the incremental update against a ground truth.
    """
    if width <= 0:
        return 0
    bits &= (1 << length) - 1  # only the window's bits participate
    mask = (1 << width) - 1
    folded = 0
    pos = 0
    while pos < length:
        folded ^= (bits >> pos) & mask
        pos += width
    return folded & mask


class HistoryBuffer:
    """A fixed-capacity circular buffer of history bits.

    The buffer records the direction of every retired branch (newest bit at
    logical position 0).  Folded registers need to know the bit that *leaves*
    each of their windows on every update, which the buffer provides in O(1).
    """

    __slots__ = ("_bits", "_head", "_capacity", "_count")

    def __init__(self, capacity: int = 8192) -> None:
        if capacity <= 0:
            raise ValueError("history capacity must be positive")
        self._capacity = capacity
        self._bits = [0] * capacity
        self._head = 0  # Index where the *next* bit will be written.
        self._count = 0

    @property
    def capacity(self) -> int:
        return self._capacity

    def __len__(self) -> int:
        return min(self._count, self._capacity)

    def push(self, bit: int) -> None:
        """Record a new (newest) history bit."""
        self._bits[self._head] = bit & 1
        self._head = (self._head + 1) % self._capacity
        self._count += 1

    def bit(self, age: int) -> int:
        """Return the bit that is ``age`` positions old (0 == newest)."""
        if age < 0 or age >= self._capacity:
            raise IndexError(f"history age {age} out of range")
        return self._bits[(self._head - 1 - age) % self._capacity]

    def value(self, length: int) -> int:
        """Return the newest ``length`` bits as an integer (bit 0 newest)."""
        if length > self._capacity:
            raise ValueError("requested more bits than the buffer holds")
        out = 0
        for age in range(length):
            out |= self.bit(age) << age
        return out

    def clear(self) -> None:
        self._bits = [0] * self._capacity
        self._head = 0
        self._count = 0


class FoldedHistory:
    """Incrementally-maintained XOR-fold of an ``length``-bit history window.

    ``update`` must be called exactly once per history bit inserted, with the
    new bit and the bit leaving the window (i.e. the bit that was ``length``
    positions old *before* the insertion).
    """

    __slots__ = ("length", "width", "value", "_out_shift", "_mask")

    def __init__(self, length: int, width: int) -> None:
        if length < 0:
            raise ValueError("length must be non-negative")
        if width <= 0:
            raise ValueError("width must be positive")
        self.length = length
        self.width = width
        self.value = 0
        self._out_shift = length % width
        self._mask = (1 << width) - 1

    def update(self, new_bit: int, old_bit: int) -> None:
        """Shift ``new_bit`` in and cancel ``old_bit`` leaving the window."""
        v = (self.value << 1) | (new_bit & 1)
        # The bit leaving the window was folded in at position length % width.
        v ^= (old_bit & 1) << self._out_shift
        # Fold the bit that overflowed past `width` back to position 0.
        v ^= v >> self.width
        self.value = v & self._mask

    def reset(self) -> None:
        self.value = 0
