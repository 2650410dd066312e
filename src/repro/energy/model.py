"""Structure inventory and access-frequency-weighted energy (Table III, Fig 12).

Structures are costed at the paper's *hardware* sizes (Table III is a
hardware study, independent of the simulation's capacity scaling): a 64K
and 512K TSL, the 504KiB LLBP storage, the 8.75KiB context directory and
pattern buffers of 16/64/256 entries (36 bytes per pattern set).

Fig 12 weights per-access energy by how often each structure is accessed,
with access counts taken from simulation: TAGE-SC-L and the PB are read
for every conditional-branch prediction, the CD on every context change,
and LLBP storage on every pattern-set fill or writeback.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from repro.energy.sram import SramModel, SramStructure

#: Bytes of one pattern set transfer (288 bits, §VI).
PATTERN_SET_BYTES = 36


def pb_structure(entries: int) -> SramStructure:
    return SramStructure(
        name=f"PB ({entries} entries)",
        capacity_bytes=entries * PATTERN_SET_BYTES,
        access_bytes=PATTERN_SET_BYTES,
        ways=4,
    )


TABLE3_STRUCTURES: Dict[str, SramStructure] = {
    "64KiB TSL": SramStructure("64KiB TSL", 64 * 1024, 42),
    "512KiB TSL": SramStructure("512KiB TSL", 512 * 1024, 42),
    "LLBP": SramStructure("LLBP", 504 * 1024, PATTERN_SET_BYTES),
    "CD": SramStructure("CD", int(8.75 * 1024), 1, ways=7),
    "PB (64-entries)": pb_structure(64),
}


@dataclass
class StructureEnergy:
    """One Table III row."""

    name: str
    relative_latency: float
    latency_cycles: int
    relative_energy: float


def table3_rows(model: SramModel = SramModel()) -> List[StructureEnergy]:
    """Regenerate Table III."""
    rows = []
    for name, structure in TABLE3_STRUCTURES.items():
        rows.append(StructureEnergy(
            name=name,
            relative_latency=model.relative_latency(structure),
            latency_cycles=model.latency_cycles(structure),
            relative_energy=model.relative_energy(structure),
        ))
    return rows


@dataclass
class EnergyBreakdown:
    """Access-frequency-weighted energy of one design (Fig 12)."""

    design: str
    components: Dict[str, float]

    @property
    def total(self) -> float:
        return sum(self.components.values())


class EnergyModel:
    """Combines per-access energies with simulated access frequencies."""

    def __init__(self, sram: SramModel = SramModel()) -> None:
        self.sram = sram

    def tsl_design(self, name: str, capacity_kib: int = 64) -> EnergyBreakdown:
        """A plain TSL design: one pattern-table access per prediction.

        Components are energy *per conditional prediction*, relative to
        one 64K TSL access — the unit Fig 12 plots.
        """
        structure = SramStructure(name, capacity_kib * 1024, 42)
        return EnergyBreakdown(
            design=name,
            components={"TAGE-SC-L": self.sram.relative_energy(structure)},
        )

    def llbp_design(self, predictions: int, cd_accesses: int,
                    llbp_accesses: int, pb_entries: int = 64,
                    pb_accesses: int = 0, name: str = "") -> EnergyBreakdown:
        """LLBP beside a 64K TSL (Fig 12's LLBP bars).

        Access counts are converted to frequencies per prediction; the PB
        defaults to one access per prediction (it sits on the prediction
        path beside TAGE).
        """
        if predictions <= 0:
            raise ValueError("predictions must be positive")
        if pb_accesses <= 0:
            pb_accesses = predictions
        tsl = self.sram.relative_energy(TABLE3_STRUCTURES["64KiB TSL"])
        cd = self.sram.relative_energy(TABLE3_STRUCTURES["CD"])
        llbp = self.sram.relative_energy(TABLE3_STRUCTURES["LLBP"])
        pb = self.sram.relative_energy(pb_structure(pb_entries))
        return EnergyBreakdown(
            design=name or f"LLBP ({pb_entries}-entry PB)",
            components={
                "TAGE-SC-L": tsl,
                "CD": cd * cd_accesses / predictions,
                "PB": pb * pb_accesses / predictions,
                "LLBP": llbp * llbp_accesses / predictions,
            },
        )
