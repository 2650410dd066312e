"""The python -m repro.experiments entry point."""

import os

import pytest

from repro import telemetry
from repro.experiments.__main__ import _EXPERIMENTS, main


@pytest.fixture(autouse=True)
def _fast(isolated_caches):
    """Tiny Kafka-only budget."""


def test_registry_covers_every_table_and_figure():
    expected = {"table1", "table2", "table3", "fig01", "fig02", "fig03",
                "fig05", "fig09", "fig10", "fig11", "fig12", "fig13",
                "fig14", "fig15", "fig16"}
    assert set(_EXPERIMENTS) == expected


def test_unknown_experiment_rejected(capsys):
    assert main(["nope"]) == 2
    assert "unknown experiments" in capsys.readouterr().err


def test_unknown_env_workload_is_a_usage_error(isolated_caches, monkeypatch,
                                               capsys):
    monkeypatch.setenv("REPRO_WORKLOADS", "Kafak")
    assert main(["fig09", "-j", "1"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("REPRO_WORKLOADS: unknown workload 'Kafak'")
    assert len(err.splitlines()) == 1
    assert not (isolated_caches / "cache").exists()  # nothing ran


@pytest.mark.parametrize("value", ["abc", "0"])
def test_malformed_env_instructions_is_a_usage_error(isolated_caches,
                                                     monkeypatch, capsys,
                                                     value):
    monkeypatch.setenv("REPRO_INSTRUCTIONS", value)
    assert main(["fig09", "-j", "1"]) == 2
    err = capsys.readouterr().err
    assert err == f"REPRO_INSTRUCTIONS: {value!r} is not a positive integer\n"
    assert not (isolated_caches / "cache").exists()  # nothing ran


def test_single_experiment_runs(capsys):
    assert main(["table3"]) == 0
    out = capsys.readouterr().out
    assert "Table III" in out and "LLBP" in out


def test_simulated_experiment_runs(capsys):
    assert main(["fig01"]) == 0
    out = capsys.readouterr().out
    assert "wasted" in out.lower() or "Fig 1" in out


def test_prewarm_lists_every_simulation(isolated_caches, monkeypatch):
    """Each experiment lists its jobs twice: in ``jobs()`` for the
    prewarm and in the ``get_result`` calls of its ``run()``.  After the
    prewarm of a full run, this process must simulate nothing."""
    tdir = isolated_caches / "telemetry"
    monkeypatch.setenv("REPRO_INSTRUCTIONS", "20000")
    monkeypatch.setenv(telemetry.ENV_VAR, "0")  # the flag drives it
    try:
        assert main(["-j", "2", "--telemetry", str(tdir)]) == 0
    finally:
        telemetry.reset()
    events = [event for event in telemetry.load_events(tdir)
              if event["pid"] == os.getpid()]
    names = [event["event"] for event in events]
    after = events[names.index("experiment.prewarm") + 1:]
    assert "experiment.run" in names[names.index("experiment.prewarm"):]
    simulated = [(event["workload"], event["key"]) for event in after
                 if event["event"] == "runner.result"
                 and event["source"] in ("simulated", "batched")]
    assert simulated == []
