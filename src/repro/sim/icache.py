"""L1 instruction cache model — Fig 11's bandwidth yardstick.

The paper compares LLBP's pattern-set fill traffic against the traffic
between the L1-I and L2 (512 bits per miss, demand plus next-line
prefetch).  The instruction stream is reconstructed from the branch
trace: the ``gap`` instructions retired before a branch at ``pc`` occupy
the sequential address run ending at that branch.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from repro.traces.trace import Trace
from repro.workloads.program import INSTR_BYTES

LINE_BITS = 512  # 64-byte lines


class InstructionCache:
    """Set-associative LRU I-cache with next-line prefetch on miss.

    Each set is an insertion-ordered dict of line addresses, oldest
    first: a demand hit moves its line to the end, a fill past ``ways``
    evicts the first.  The next-line probe does not touch LRU order.
    """

    def __init__(self, size_kib: int = 32, ways: int = 8,
                 line_bytes: int = 64) -> None:
        if size_kib <= 0 or ways <= 0 or line_bytes <= 0:
            raise ValueError("cache geometry must be positive")
        num_lines = size_kib * 1024 // line_bytes
        if num_lines < ways or num_lines % ways:
            raise ValueError("size/ways/line must give a whole number of sets")
        self.line_bytes = line_bytes
        self.ways = ways
        self._sets: List[Dict[int, None]] = [
            {} for _ in range(num_lines // ways)]
        self.demand_misses = 0
        self.prefetch_fills = 0

    def fetch_line(self, line_addr: int) -> None:
        """Demand-fetch one line; prefetch the next on a miss."""
        lines = self._sets[line_addr % len(self._sets)]
        if line_addr in lines:
            del lines[line_addr]
            lines[line_addr] = None
            return
        self.demand_misses += 1
        self._fill(lines, line_addr)
        following = self._sets[(line_addr + 1) % len(self._sets)]
        if line_addr + 1 not in following:
            self.prefetch_fills += 1
            self._fill(following, line_addr + 1)

    def _fill(self, lines: Dict[int, None], line_addr: int) -> None:
        if len(lines) >= self.ways:
            del lines[next(iter(lines))]
        lines[line_addr] = None

    def fetch_range(self, start: int, end: int) -> None:
        """Fetch every line overlapping byte addresses ``[start, end]``."""
        line = start // self.line_bytes
        last = end // self.line_bytes
        while line <= last:
            self.fetch_line(line)
            line += 1


@dataclass
class ICacheResult:
    """Traffic summary of an I-cache walk over a trace."""

    instructions: int
    demand_misses: int
    prefetch_fills: int

    @property
    def traffic_bits(self) -> int:
        return (self.demand_misses + self.prefetch_fills) * LINE_BITS

    @property
    def bits_per_instruction(self) -> float:
        if self.instructions <= 0:
            return 0.0
        return self.traffic_bits / self.instructions


def simulate_icache(trace: Trace, size_kib: int = 32, ways: int = 8,
                    line_bytes: int = 64,
                    warmup_instructions: int = 0) -> ICacheResult:
    """Walk the reconstructed fetch stream of ``trace`` through an L1-I."""
    cache = InstructionCache(size_kib, ways, line_bytes)
    instructions = 0
    measured_instructions = 0
    base_misses = 0
    base_prefetches = 0

    for pc, _btype, _taken, _target, gap in trace.iter_tuples():
        instructions += gap
        if instructions > warmup_instructions and measured_instructions == 0:
            base_misses = cache.demand_misses
            base_prefetches = cache.prefetch_fills
            measured_instructions = 1  # mark measurement started
        # The gap instructions end at this branch: sequential run.
        start = pc + INSTR_BYTES - gap * INSTR_BYTES
        cache.fetch_range(max(0, start), pc)

    measured = instructions - warmup_instructions if instructions > warmup_instructions else 0
    return ICacheResult(
        instructions=measured,
        demand_misses=cache.demand_misses - base_misses,
        prefetch_fills=cache.prefetch_fills - base_prefetches,
    )
