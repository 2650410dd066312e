"""Experiment modules produce well-formed rows (tiny budgets)."""

import pytest

from repro.experiments import fig01, fig02, fig09, fig10, fig11, fig12, fig15
from repro.experiments import tables
from repro.experiments.common import (
    experiment_instructions,
    experiment_workloads,
    format_table,
)


@pytest.fixture(autouse=True)
def _fast(isolated_caches):
    """All experiment tests run on the tiny Kafka budget."""


def test_env_knobs(monkeypatch):
    monkeypatch.setenv("REPRO_INSTRUCTIONS", "12345")
    assert experiment_instructions() == 12345
    monkeypatch.setenv("REPRO_WORKLOADS", "all")
    assert len(experiment_workloads()) == 14
    monkeypatch.setenv("REPRO_WORKLOADS", "Kafka, Tomcat")
    assert experiment_workloads() == ["Kafka", "Tomcat"]
    monkeypatch.setenv("REPRO_WORKLOADS", "Bogus")
    with pytest.raises(ValueError):
        experiment_workloads()


def test_repro_workloads_takes_stressors(monkeypatch):
    """``REPRO_WORKLOADS`` parses like ``--workloads``, and Fig 16 lists
    a stressor it names once."""
    from repro.experiments import fig16

    monkeypatch.setenv("REPRO_WORKLOADS", "adv:hist,l=4,Kafka,adv:xor")
    assert experiment_workloads() == ["adv:hist,l=4", "Kafka", "adv:xor"]
    assert fig16.figure_workloads() == [
        "adv:hist,l=4", "Kafka", "adv:xor", "adv:hist", "adv:alias"]
    monkeypatch.setenv("REPRO_WORKLOADS", "adv:bogus")
    with pytest.raises(ValueError, match="REPRO_WORKLOADS"):
        experiment_workloads()


def test_format_table():
    text = format_table([{"a": 1, "b": 2.5}], ["a", "b"])
    assert "a" in text and "2.500" in text
    assert format_table([], ["a"]) == "(no rows)"


def test_fig01_rows():
    rows = fig01.run()
    assert rows[-1]["workload"] == "GMean"
    assert all(0 <= r["wasted_cycles_pct"] <= 100 for r in rows)
    assert fig01.format_rows(rows)


def test_fig02_rows_and_reductions():
    rows = fig02.run()
    assert set(rows[0]) == {"workload", "tsl64", "inf-tage", "inf-tsl"}
    red = fig02.reductions(rows)
    assert "inf-tsl" in red
    assert fig02.format_rows(rows)


def test_fig09_rows():
    rows = fig09.run()
    assert rows[-1]["workload"] == "Mean"
    assert "LLBP" in rows[0] and "512K TSL" in rows[0]
    assert fig09.format_rows(rows)


def test_fig10_speedups_positive():
    rows = fig10.run()
    for row in rows:
        for key, value in row.items():
            if key != "workload":
                assert value > 0.5
    # Perfect BP is the upper bound.
    mean = rows[-1]
    assert mean["Perfect BP"] >= mean["LLBP"] - 1e-9
    assert fig10.format_rows(rows)


def test_fig11_rows():
    rows = fig11.run(workloads=["Kafka"])
    structures = [r["structure"] for r in rows]
    assert "L1I misses" in structures
    assert all(r["total_bits_per_instr"] >= 0 for r in rows)
    assert fig11.format_rows(rows)


def test_fig12_rows():
    rows = fig12.run(workloads=["Kafka"])
    by_design = {r["design"]: r for r in rows}
    assert by_design["64KiB TSL"]["total_rel"] == pytest.approx(1.0)
    assert by_design["512KiB TAGE"]["total_rel"] == pytest.approx(4.58)
    assert by_design["64-Entry PB"]["total_rel"] > 1.0
    assert fig12.format_rows(rows)


def test_fig15_rows():
    data = fig15.run()
    rows = data["rows"]
    assert rows[-1]["workload"] == "Mean"
    assert 0 <= rows[-1]["provided_pct"] <= 100
    assert fig15.format_rows(data)


def test_tables():
    t1 = tables.table1()
    assert len(t1) == 14
    assert tables.format_table1(t1)
    t2 = tables.table2()
    assert any("Branch Pred" in r["parameter"] for r in t2)
    assert tables.format_table2(t2)
    t3 = tables.table3()
    assert len(t3) == 5
    assert tables.format_table3(t3)
