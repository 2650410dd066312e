"""Structure inventory and Fig 12 energy weighting."""

import pytest

from repro.energy.model import (
    EnergyModel,
    TABLE3_STRUCTURES,
    pb_structure,
    table3_rows,
)


def test_table3_rows_cover_paper_structures():
    rows = {r.name: r for r in table3_rows()}
    assert set(rows) == set(TABLE3_STRUCTURES)
    assert rows["64KiB TSL"].relative_energy == pytest.approx(1.0)
    assert rows["512KiB TSL"].relative_energy == pytest.approx(4.58)
    assert rows["LLBP"].relative_energy == pytest.approx(4.44)
    assert rows["CD"].relative_energy == pytest.approx(0.30)
    assert rows["PB (64-entries)"].relative_energy == pytest.approx(0.25)


def test_table3_cycles():
    rows = {r.name: r for r in table3_rows()}
    assert rows["64KiB TSL"].latency_cycles == 2
    assert rows["512KiB TSL"].latency_cycles == 4
    assert rows["LLBP"].latency_cycles == 4
    assert rows["CD"].latency_cycles == 1
    assert rows["PB (64-entries)"].latency_cycles == 1


def test_pb_structure_geometry():
    pb = pb_structure(64)
    assert pb.capacity_bytes == 64 * 36
    assert pb.ways == 4


def test_tsl_design_unit_energy():
    model = EnergyModel()
    assert model.tsl_design("64KiB TSL").total == pytest.approx(1.0)
    assert model.tsl_design("512KiB TSL", capacity_kib=512).total == pytest.approx(4.58)


def test_llbp_design_weighting():
    """Paper access rates: CD every ~6.3 cycles, LLBP every ~7.7 cycles
    with a 64-entry PB -> total ~1.5x over the baseline."""
    model = EnergyModel()
    predictions = 1_000_000
    breakdown = model.llbp_design(
        predictions=predictions,
        cd_accesses=predictions // 6,
        llbp_accesses=predictions // 8,
        pb_entries=64,
    )
    assert breakdown.components["TAGE-SC-L"] == pytest.approx(1.0)
    assert 1.3 < breakdown.total < 2.2


def test_llbp_design_validates_predictions():
    with pytest.raises(ValueError):
        EnergyModel().llbp_design(0, 1, 1)


def test_rare_llbp_access_is_cheap():
    """Accessing the big array rarely must cost less than scaling TSL."""
    model = EnergyModel()
    predictions = 1_000_000
    llbp = model.llbp_design(predictions, predictions // 6, predictions // 8)
    scaled = model.tsl_design("512KiB TSL", capacity_kib=512)
    assert llbp.total < scaled.total
