"""Struct-of-arrays trace container.

Traces routinely hold hundreds of thousands of branch records; storing a
Python object per record would dominate memory and iteration time.  The
``Trace`` class keeps five parallel numpy arrays and exposes both bulk
(array) access for analysis code and a fast tuple iterator for the
simulation loop.
"""

from __future__ import annotations

from itertools import chain
from typing import Iterator, List, Optional, Tuple

import numpy as np

from repro.traces.types import BranchRecord, BranchType

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

    def record(self, i: int) -> BranchRecord:
        """Materialise record ``i`` as a :class:`BranchRecord` (slow path)."""
        return BranchRecord(
            pc=int(self.pcs[i]),
            branch_type=BranchType(int(self.types[i])),
            taken=bool(self.takens[i]),
            target=int(self.targets[i]),
            instr_gap=int(self.gaps[i]),
        )

    #: Records per chunk converted to Python ints at a time; bounds peak
    #: list memory on multi-million-record traces without measurable
    #: per-record overhead (``chain``/``zip`` iterate at C speed).
    CHUNK_RECORDS = 1 << 16

    def iter_chunks(self, start: int = 0, stop: Optional[int] = None,
                    chunk: int = CHUNK_RECORDS) -> Iterator[zip]:
        """Yield zips of ``(pc, type, taken, target, gap)`` per chunk.

        Each chunk converts its slice of the five columns with a single
        ``tolist()`` call; iterating the resulting Python lists is several
        times faster than indexing numpy scalars per record.  Hot loops
        that want to avoid any per-record generator overhead can consume
        the chunks directly.
        """
        if stop is None:
            stop = len(self.pcs)
        pcs, types, takens = self.pcs, self.types, self.takens
        targets, gaps = self.targets, self.gaps
        for lo in range(start, stop, chunk):
            hi = lo + chunk
            if hi > stop:
                hi = stop
            yield zip(
                pcs[lo:hi].tolist(),
                types[lo:hi].tolist(),
                takens[lo:hi].tolist(),
                targets[lo:hi].tolist(),
                gaps[lo:hi].tolist(),
            )

    def iter_tuples(self, start: int = 0,
                    stop: Optional[int] = None) -> Iterator[BranchTuple]:
        """Yield ``(pc, type, taken, target, gap)`` tuples of Python ints
        for records ``[start, stop)`` (the whole trace by default)."""
        return chain.from_iterable(self.iter_chunks(start, stop))

    def slice(self, start: int, stop: int) -> "Trace":
        """Return a sub-trace of records ``[start, stop)``."""
        return Trace(
            self.pcs[start:stop],
            self.types[start:stop],
            self.takens[start:stop],
            self.targets[start:stop],
            self.gaps[start:stop],
            name=f"{self.name}[{start}:{stop}]",
        )

    def truncate_to_instructions(self, max_instructions: int) -> "Trace":
        """Return the longest prefix with at most ``max_instructions``."""
        cumulative = np.cumsum(self.gaps.astype(np.int64))
        stop = int(np.searchsorted(cumulative, max_instructions, side="right"))
        return self.slice(0, stop)


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

    def append_record(self, record: BranchRecord) -> None:
        self.append(record.pc, record.branch_type, record.taken,
                    record.target, record.instr_gap)

    def build(self) -> Trace:
        return Trace(
            np.array(self._pcs, dtype=np.uint64),
            np.array(self._types, dtype=np.uint8),
            np.array(self._takens, dtype=np.uint8),
            np.array(self._targets, dtype=np.uint64),
            np.array(self._gaps, dtype=np.uint16),
            name=self.name,
        )
