"""Anchored scaling model for SRAM access latency and energy.

CACTI is a large C++ tool; what the paper extracts from it is a set of
*relative* access latencies and energies for five structures (Table III).
This model stores those measurements as anchors and scales between them
with the power laws the anchors themselves imply:

* energy  ~ capacity ** 0.73   (64K→512K TSL: 8x capacity → 4.58x energy)
* latency ~ capacity ** 0.45   (64K→512K TSL: 8x capacity → 2.55x latency)

For a queried structure the nearest anchor (log-distance in capacity and
access width) is selected and scaled — so the paper's exact numbers are
reproduced at the anchors, and other design points (e.g. the 16- and
256-entry pattern buffers of Fig 12) interpolate sensibly.
All outputs are relative to one 64K TSL pattern-table access.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Tuple

#: Capacity exponents implied by Table III's 64KiB → 512KiB anchors.
LAT_EXP = math.log(2.55) / math.log(8.0)     # ≈ 0.45
ENERGY_EXP = math.log(4.58) / math.log(8.0)  # ≈ 0.73


@dataclass(frozen=True)
class SramStructure:
    """A physical SRAM structure to be costed."""

    name: str
    capacity_bytes: float
    access_bytes: float
    ways: int = 1

    def __post_init__(self) -> None:
        if self.capacity_bytes <= 0 or self.access_bytes <= 0 or self.ways <= 0:
            raise ValueError("structure geometry must be positive")


@dataclass(frozen=True)
class _Anchor:
    """One Table III measurement: (capacity, width) -> (latency, energy)."""

    capacity_bytes: float
    access_bytes: float
    rel_latency: float
    rel_energy: float


#: Table III, relative to 64K TSL.  Access widths per §VII-D: TAGE reads
#: 42 bytes (21 tables x 16 bits); LLBP and PB move a 36-byte pattern set;
#: the CD reads 8 bits of metadata.
_ANCHORS: Tuple[_Anchor, ...] = (
    _Anchor(64 * 1024, 42, 1.00, 1.00),      # 64KiB TSL
    _Anchor(512 * 1024, 42, 2.55, 4.58),     # 512KiB TSL
    _Anchor(504 * 1024, 36, 2.68, 4.44),     # LLBP storage
    _Anchor(8.75 * 1024, 1, 0.80, 0.30),     # context directory
    _Anchor(2.25 * 1024, 36, 0.62, 0.25),    # 64-entry pattern buffer
)


class SramModel:
    """Relative latency/energy of SRAM structures (1.0 = 64K TSL access)."""

    def __init__(self, frequency_ghz: float = 4.0,
                 reference_latency_cycles: int = 2) -> None:
        self.frequency_ghz = frequency_ghz
        self.reference_latency_cycles = reference_latency_cycles

    @staticmethod
    def _nearest_anchor(structure: SramStructure) -> _Anchor:
        def distance(anchor: _Anchor) -> float:
            cap = abs(math.log(structure.capacity_bytes / anchor.capacity_bytes))
            width = abs(math.log(structure.access_bytes / anchor.access_bytes))
            return cap + 0.5 * width

        return min(_ANCHORS, key=distance)

    def relative_latency(self, structure: SramStructure) -> float:
        anchor = self._nearest_anchor(structure)
        ratio = structure.capacity_bytes / anchor.capacity_bytes
        return anchor.rel_latency * ratio ** LAT_EXP

    #: Cycles per unit of relative latency: calibrated so Table III's
    #: cycle column reproduces (64K TSL -> 2 cycles, 512K TSL and LLBP ->
    #: 4 cycles, CD and PB -> 1 cycle) at a 0.25ns clock.
    CYCLES_PER_REL = 1.57

    def latency_cycles(self, structure: SramStructure) -> int:
        """Access latency in cycles at 4GHz (Table III's cycle column)."""
        cycles = self.relative_latency(structure) * self.CYCLES_PER_REL
        return max(1, round(cycles))

    def relative_energy(self, structure: SramStructure) -> float:
        anchor = self._nearest_anchor(structure)
        ratio = structure.capacity_bytes / anchor.capacity_bytes
        return anchor.rel_energy * ratio ** ENERGY_EXP
