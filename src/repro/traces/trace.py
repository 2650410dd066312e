"""Struct-of-arrays trace container.

Traces routinely hold hundreds of thousands of branch records; storing a
Python object per record would dominate memory and iteration time.  The
``Trace`` class keeps five parallel numpy arrays and exposes both bulk
(array) access for analysis code and a fast tuple iterator for the
simulation loop.
"""

from __future__ import annotations

from itertools import chain
from typing import Iterator, List, Tuple

import numpy as np

from repro.traces.types import BranchType

# The tuple layout yielded by Trace.iter_tuples(): hot-loop code unpacks
# these positionally, so the order is part of the API.
BranchTuple = Tuple[int, int, int, int, int]  # (pc, type, taken, target, gap)


class Trace:
    """An immutable sequence of branch records backed by numpy arrays.

    ``aux`` carries optional derived columns keyed by string — the array
    engine memoises its precomputed hash/fold columns there, so every
    run over this trace object shares them; they never reach disk.
    ``store_path`` is the packed-store file backing this trace, or
    ``None`` for in-memory traces.  Neither participates in trace equality or length
    checks.
    """

    __slots__ = ("pcs", "types", "takens", "targets", "gaps", "name",
                 "aux", "store_path")

    def __init__(
        self,
        pcs: np.ndarray,
        types: np.ndarray,
        takens: np.ndarray,
        targets: np.ndarray,
        gaps: np.ndarray,
        name: str = "trace",
    ) -> None:
        n = len(pcs)
        for arr, label in ((types, "types"), (takens, "takens"),
                           (targets, "targets"), (gaps, "gaps")):
            if len(arr) != n:
                raise ValueError(f"array {label!r} length mismatch")
        self.pcs = np.asarray(pcs, dtype=np.uint64)
        self.types = np.asarray(types, dtype=np.uint8)
        self.takens = np.asarray(takens, dtype=np.uint8)
        self.targets = np.asarray(targets, dtype=np.uint64)
        self.gaps = np.asarray(gaps, dtype=np.uint16)
        self.name = name
        self.aux: dict = {}
        self.store_path = None

    def __len__(self) -> int:
        return len(self.pcs)

    @property
    def num_instructions(self) -> int:
        """Total retired instructions represented by this trace."""
        return int(self.gaps.sum())

    @property
    def num_conditional(self) -> int:
        return int((self.types == int(BranchType.COND)).sum())

    #: Records per chunk converted to Python ints at a time; bounds peak
    #: list memory on multi-million-record traces without measurable
    #: per-record overhead (``chain``/``zip`` iterate at C speed).
    CHUNK_RECORDS = 1 << 16

    def iter_tuples(self) -> Iterator[BranchTuple]:
        """Yield ``(pc, type, taken, target, gap)`` tuples of Python ints.

        Each chunk of records converts its slice of the five columns with
        one ``tolist()`` call; iterating the resulting Python lists is
        several times faster than indexing numpy scalars per record.
        """
        chunk = self.CHUNK_RECORDS
        columns = (self.pcs, self.types, self.takens, self.targets, self.gaps)
        return chain.from_iterable(
            zip(*[column[lo:lo + chunk].tolist() for column in columns])
            for lo in range(0, len(self.pcs), chunk))


class TraceBuilder:
    """Accumulates records and produces an immutable :class:`Trace`."""

    def __init__(self, name: str = "trace") -> None:
        self.name = name
        self._pcs: List[int] = []
        self._types: List[int] = []
        self._takens: List[int] = []
        self._targets: List[int] = []
        self._gaps: List[int] = []
        # Running sum of ``_gaps``: generators poll ``num_instructions``
        # once per record, so summing the list would make them quadratic.
        self._instructions = 0

    def __len__(self) -> int:
        return len(self._pcs)

    @property
    def num_instructions(self) -> int:
        return self._instructions

    def append(self, pc: int, branch_type: BranchType, taken: bool,
               target: int, instr_gap: int = 1) -> None:
        if instr_gap < 1:
            raise ValueError("instr_gap must be >= 1")
        self._pcs.append(pc)
        self._types.append(int(branch_type))
        self._takens.append(1 if taken else 0)
        self._targets.append(target)
        self._gaps.append(instr_gap)
        self._instructions += instr_gap

    def build(self) -> Trace:
        return Trace(
            np.array(self._pcs, dtype=np.uint64),
            np.array(self._types, dtype=np.uint8),
            np.array(self._takens, dtype=np.uint8),
            np.array(self._targets, dtype=np.uint64),
            np.array(self._gaps, dtype=np.uint16),
            name=self.name,
        )
