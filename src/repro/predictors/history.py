"""Global-history state shared by TAGE-style predictors.

A :class:`GlobalHistory` owns the direction-history buffer and the path
history; :class:`HistorySet` attaches folded registers (index fold plus
two tag folds per configured component, following Seznec's TAGE) to a
``GlobalHistory`` so several consumers (the TAGE tables and LLBP's pattern
tags) can fold the *same* history stream at different widths.

History policy (matching common TAGE implementations): every branch
inserts one bit — the outcome for conditional branches, a PC-derived bit
for unconditional ones — and two PC bits into the 32-bit path history.

The fold update is the hottest non-engine code in the simulator: every
retired branch updates three folds per component across every attached
consumer (a 64K TSL alone carries 21 folds).  ``HistorySet`` therefore
keeps the fold state in flat parallel lists of ints and applies the
incremental XOR-fold inline — semantically identical to chaining
:class:`repro.common.bitops.FoldedHistory` registers (the tests
cross-check against that reference) but without 3 method calls and ~12
attribute loads per component per branch.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

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
    current values as plain ints for hot-loop use; ``values`` is the flat
    backing list ``[idx0, tag0, tag2_0, idx1, tag1, tag2_1, ...]`` which
    hot loops (TAGE/LLBP lookup) may read directly but must never mutate
    or rebind.
    """

    __slots__ = ("specs", "values", "_params", "_stride", "_push")

    def __init__(self, history: GlobalHistory, specs: Sequence[HistorySpec],
                 tag_only: bool = False,
                 fold_widths: Optional[Sequence[int]] = None) -> None:
        self.specs = list(specs)
        capacity = history.buffer.capacity
        self._stride = len(fold_widths) if fold_widths else (2 if tag_only else 3)
        self.values: List[int] = []
        # One parameter tuple per component:
        # (age, out0, w0, m0, out1, w1, m1[, out2, w2, m2]) where out is
        # pre-shifted to ``1 << (length % width)`` — a single
        # sequence-unpack in _push replaces nine list-index loads.
        # ``tag_only`` drops the index fold: when index_bits == tag_bits
        # the two folds are always equal (LLBP's pattern-tag sets), so
        # maintaining both wastes a third of the fold work.  An explicit
        # ``fold_widths`` overrides both layouts — used when some folds a
        # component needs are already maintained by another set over the
        # same history (LLBP borrowing TAGE's tag folds).
        self._params: List[Tuple[int, ...]] = []
        for spec in self.specs:
            if spec.length > capacity:
                raise ValueError(
                    f"history length {spec.length} exceeds the buffer "
                    f"capacity {capacity}")
            if fold_widths:
                widths: Tuple[int, ...] = tuple(fold_widths)
            elif tag_only:
                widths = (spec.tag_bits, max(1, spec.tag_bits - 1))
            else:
                widths = (spec.index_bits, spec.tag_bits,
                          max(1, spec.tag_bits - 1))
            params: List[int] = [spec.length - 1]
            for width in widths:
                self.values.append(0)
                params.extend((1 << (spec.length % width), width,
                               (1 << width) - 1))
            self._params.append(tuple(params))
        self._push = _compile_push(self._params, self.values)
        history.attach(self)

    def __len__(self) -> int:
        return len(self.specs)

    def index_fold(self, i: int) -> int:
        # A tag-only set's index fold equals its tag fold by construction.
        return self.values[self._stride * i]

    def tag_fold(self, i: int) -> int:
        return self.values[self._stride * i + (1 if self._stride == 3 else 0)]

    def tag_fold2(self, i: int) -> int:
        # Last fold of the component; with a single fold it coincides
        # with the tag fold.
        return self.values[self._stride * i + self._stride - 1]

    def folds(self, i: int) -> Tuple[int, int, int]:
        j = self._stride * i
        values = self.values
        if self._stride == 3:
            return values[j], values[j + 1], values[j + 2]
        if self._stride == 2:
            return values[j], values[j], values[j + 1]
        return values[j], values[j], values[j]

    def reset(self) -> None:
        values = self.values
        for j in range(len(values)):
            values[j] = 0


def _compile_push(params: Sequence[Tuple[int, ...]],
                  values: List[int]) -> "Callable":
    """Compile a specialised fold-update function for one fold set.

    The returned function is what :meth:`GlobalHistory.push_branch` calls
    per retired branch: it folds the incoming bit into every register,
    reading ``bits``/``head`` (the history buffer's backing list and write
    position *before* the push) so ``bits[head-1-age]`` is the bit leaving
    each window — Python's negative-index wraparound provides the circular
    addressing (ages are bounded by the capacity check in ``__init__``).

    This is by far the hottest code in the simulator (three folds per TAGE
    table per retired branch), so the incremental XOR-fold is *generated*:
    the loop over components is unrolled and every width, mask, out-shift
    and value index is baked in as a constant, then specialised four ways —
    the incoming bit selects a branch and each component's outgoing bit
    selects a body, so both single-bit terms collapse into constants.
    Semantically identical to chaining ``FoldedHistory.update`` calls (the
    tests cross-check against that reference).
    """
    def emit(out: List[str], indent: str, new_bit: int) -> None:
        j = 0
        for tup in params:
            age, folds = tup[0], tup[1:]
            orr = " | 1" if new_bit else ""
            out.append(f"{indent}if bits[base - {age}]:")
            for body_old in (True, False):
                if not body_old:
                    out.append(f"{indent}else:")
                for k in range(0, len(folds), 3):
                    p, w, m = folds[k], folds[k + 1], folds[k + 2]
                    jj = j + k // 3
                    xor = f" ^ {p}" if body_old else ""
                    out.append(f"{indent}    v = (values[{jj}] << 1{orr}){xor}")
                    out.append(f"{indent}    v ^= v >> {w}")
                    out.append(f"{indent}    values[{jj}] = v & {m}")
            j += len(folds) // 3

    lines = ["def _push(bits, head, new_bit, values=values):"]
    if params:
        lines.append("    base = head - 1")
        lines.append("    if new_bit:")
        emit(lines, "        ", 1)
        lines.append("    else:")
        emit(lines, "        ", 0)
    else:
        lines.append("    pass")
    namespace = {"values": values}
    exec(compile("\n".join(lines), "<fold-push>", "exec"), namespace)
    return namespace["_push"]


def geometric_lengths(minimum: int, maximum: int, count: int) -> List[int]:
    """Geometrically spaced history lengths, deduplicated and increasing."""
    if count < 2:
        raise ValueError("need at least two lengths")
    if minimum < 1 or maximum <= minimum:
        raise ValueError("invalid length range")
    ratio = (maximum / minimum) ** (1.0 / (count - 1))
    lengths: List[int] = []
    value = float(minimum)
    for _ in range(count):
        candidate = int(round(value))
        if lengths and candidate <= lengths[-1]:
            candidate = lengths[-1] + 1
        lengths.append(candidate)
        value *= ratio
    return lengths
