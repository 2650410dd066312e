"""Global-history state shared by TAGE-style predictors.

A :class:`GlobalHistory` owns the direction-history buffer and the path
history; :class:`HistorySet` attaches folded registers (index fold plus
two tag folds per configured component, following Seznec's TAGE) to a
``GlobalHistory`` so several consumers (the TAGE tables and LLBP's pattern
tags) can fold the *same* history stream at different widths.

History policy (matching common TAGE implementations): every branch
inserts one bit — the outcome for conditional branches, a PC-derived bit
for unconditional ones — and two PC bits into the 32-bit path history.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

from repro.common.bitops import HistoryBuffer

PATH_BITS = 16
_PATH_MASK = (1 << PATH_BITS) - 1


@dataclass(frozen=True)
class HistorySpec:
    """Folding geometry of one history consumer (one TAGE table)."""

    length: int
    index_bits: int
    tag_bits: int

    def __post_init__(self) -> None:
        if self.length < 1:
            raise ValueError("history length must be >= 1")
        if self.index_bits < 1 or self.tag_bits < 1:
            raise ValueError("fold widths must be >= 1")


class GlobalHistory:
    """The raw speculative history state: direction bits + path history."""

    __slots__ = ("buffer", "path", "_consumers")

    def __init__(self, capacity: int = 4096) -> None:
        self.buffer = HistoryBuffer(capacity)
        self.path = 0
        self._consumers: List["HistorySet"] = []

    def attach(self, consumer: "HistorySet") -> None:
        self._consumers.append(consumer)

    def push_branch(self, pc: int, is_conditional: bool, taken: bool) -> None:
        """Insert the history bit for a retired branch of any type."""
        if is_conditional:
            bit = 1 if taken else 0
        else:
            # Unconditional branches inject an address bit so different
            # control-flow paths through the same region diverge.
            bit = (pc >> 2) & 1
        buffer = self.buffer
        bits = buffer._bits
        head = buffer._head
        for consumer in self._consumers:
            consumer._push(bits, head, bit)
        # Inline of buffer.push(bit) — one call per retired branch adds up
        # (bit is already 0/1 here, so the & 1 is dropped too).
        bits[head] = bit
        buffer._head = (head + 1) % buffer._capacity
        buffer._count += 1
        self.path = ((self.path << 1) | ((pc >> 2) & 1)) & _PATH_MASK


class HistorySet:
    """Folded registers for a list of :class:`HistorySpec` components.

    For each component the set maintains three folds: one at
    ``index_bits`` (table index), one at ``tag_bits`` and one at
    ``tag_bits - 1`` (the classic double-fold that decorrelates tags from
    indices).  ``index_fold``, ``tag_fold`` and ``tag_fold2`` expose the
    current values as plain ints; ``values`` is the flat backing list
    ``[idx0, tag0, tag2_0, idx1, tag1, tag2_1, ...]`` which lookups may
    read directly but must never mutate or rebind.  The incremental
    XOR-fold is the one :class:`repro.common.bitops.FoldedHistory`
    applies (the tests cross-check against that reference).
    """

    __slots__ = ("specs", "values", "_folds")

    def __init__(self, history: GlobalHistory,
                 specs: Sequence[HistorySpec]) -> None:
        self.specs = list(specs)
        capacity = history.buffer.capacity
        self.values: List[int] = []
        # One (age, out, width, mask) row per fold, parallel to
        # ``values``: ``age`` locates the bit leaving the window and
        # ``out`` is that bit pre-shifted to ``1 << (length % width)``.
        self._folds: List[Tuple[int, int, int, int]] = []
        for spec in self.specs:
            if spec.length > capacity:
                raise ValueError(
                    f"history length {spec.length} exceeds the buffer "
                    f"capacity {capacity}")
            for width in (spec.index_bits, spec.tag_bits,
                          max(1, spec.tag_bits - 1)):
                self.values.append(0)
                self._folds.append((spec.length - 1,
                                    1 << (spec.length % width), width,
                                    (1 << width) - 1))
        history.attach(self)

    def __len__(self) -> int:
        return len(self.specs)

    def _push(self, bits: List[int], head: int, new_bit: int) -> None:
        """Fold ``new_bit`` into every register.

        ``bits``/``head`` are the history buffer's backing list and write
        position *before* the push, so ``bits[head - 1 - age]`` is the bit
        leaving each window; Python's negative indexing supplies the
        circular addressing (ages are bounded by the capacity check).
        """
        values = self.values
        base = head - 1
        for j, (age, out, width, mask) in enumerate(self._folds):
            v = (values[j] << 1) | new_bit
            if bits[base - age]:
                v ^= out
            v ^= v >> width
            values[j] = v & mask

    def index_fold(self, i: int) -> int:
        return self.values[3 * i]

    def tag_fold(self, i: int) -> int:
        return self.values[3 * i + 1]

    def tag_fold2(self, i: int) -> int:
        return self.values[3 * i + 2]

    def folds(self, i: int) -> Tuple[int, int, int]:
        j = 3 * i
        values = self.values
        return values[j], values[j + 1], values[j + 2]

    def reset(self) -> None:
        values = self.values
        for j in range(len(values)):
            values[j] = 0
