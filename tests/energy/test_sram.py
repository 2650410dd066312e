"""SRAM latency/energy model: must reproduce Table III at the anchors."""

import pytest

from repro.energy.sram import SramModel, SramStructure


@pytest.fixture
def model():
    return SramModel()


TABLE3 = [
    # name, capacity, width, rel_latency, cycles, rel_energy
    ("64K TSL", 64 * 1024, 42, 1.00, 2, 1.00),
    ("512K TSL", 512 * 1024, 42, 2.55, 4, 4.58),
    ("LLBP", 504 * 1024, 36, 2.68, 4, 4.44),
    ("CD", 8.75 * 1024, 1, 0.80, 1, 0.30),
    ("PB", 2.25 * 1024, 36, 0.62, 1, 0.25),
]


@pytest.mark.parametrize("name,cap,width,lat,cycles,energy", TABLE3)
def test_anchor_values_exact(model, name, cap, width, lat, cycles, energy):
    structure = SramStructure(name, cap, width)
    assert model.relative_latency(structure) == pytest.approx(lat, rel=1e-6)
    assert model.latency_cycles(structure) == cycles
    assert model.relative_energy(structure) == pytest.approx(energy, rel=1e-6)


def test_energy_monotone_in_capacity(model):
    small = SramStructure("s", 1024, 36)
    large = SramStructure("l", 1024 * 1024, 36)
    assert model.relative_energy(small) < model.relative_energy(large)


def test_latency_monotone_in_capacity(model):
    small = SramStructure("s", 64 * 1024, 42)
    large = SramStructure("l", 2 * 1024 * 1024, 42)
    assert model.relative_latency(small) < model.relative_latency(large)


def test_pb_scaling_interpolates(model):
    """The 16- and 256-entry PBs of Fig 12 scale off the PB anchor."""
    pb16 = SramStructure("pb16", 16 * 36, 36)
    pb64 = SramStructure("pb64", 64 * 36, 36)
    pb256 = SramStructure("pb256", 256 * 36, 36)
    e16 = model.relative_energy(pb16)
    e64 = model.relative_energy(pb64)
    e256 = model.relative_energy(pb256)
    assert e16 < e64 < e256
    assert e64 == pytest.approx(0.25, rel=1e-6)


def test_structure_validation():
    with pytest.raises(ValueError):
        SramStructure("x", 0, 1)
    with pytest.raises(ValueError):
        SramStructure("x", 1, 0)
