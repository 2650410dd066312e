"""The ``python -m repro.explore`` CLI surface, in-process."""

from __future__ import annotations

import json

import pytest

from repro.experiments.journal import RunJournal, default_path
from repro.explore.__main__ import BUDGETS, main


@pytest.fixture(autouse=True)
def _hermetic(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    monkeypatch.delenv("REPRO_INSTRUCTIONS", raising=False)
    monkeypatch.delenv("REPRO_WORKLOADS", raising=False)
    from repro.experiments.runner import clear_memory_cache

    clear_memory_cache()
    yield tmp_path
    clear_memory_cache()


def small_run(tmp_path, *extra):
    """A tiny custom-space search: 2 configs, 1 workload, short traces."""
    out = tmp_path / "artifact.json"
    code = main(["--budget", "smoke", "--space", "bimodal;gshare",
                 "--workloads", "Kafka", "--out", str(out), "--jobs", "1",
                 "--quiet", *extra])
    return code, out


def test_writes_artifact_and_reports_frontier(tmp_path, capsys):
    code, out = small_run(tmp_path)
    assert code == 0
    artifact = json.loads(out.read_text())
    assert artifact["space"] == "custom"
    assert artifact["workloads"] == ["Kafka"]
    assert {entry["key"] for entry in artifact["finalists"]} == {
        "bimodal", "gshare"}
    assert capsys.readouterr().out.count("artifact written") == 1


def test_check_passes_against_own_artifact(tmp_path):
    code, out = small_run(tmp_path)
    assert code == 0
    code, _ = small_run(tmp_path, "--check", str(out))
    assert code == 0


def test_check_fails_on_any_byte_difference(tmp_path, capsys):
    code, out = small_run(tmp_path)
    assert code == 0
    expected = tmp_path / "expected.json"
    expected.write_text(out.read_text().replace('"seed": 0', '"seed": 1'))
    code, _ = small_run(tmp_path, "--check", str(expected))
    assert code == 1
    assert "differs" in capsys.readouterr().err


def test_unknown_space_is_a_usage_error(tmp_path, capsys):
    assert main(["--space", "no;such;keys", "--jobs", "1"]) == 2
    assert "invalid --space" in capsys.readouterr().err


def test_adv_workload_keeps_its_tokens(tmp_path):
    """``--workloads`` parses like characterize's: ``l=4`` belongs to
    the ``adv:`` name before it."""
    out = tmp_path / "artifact.json"
    assert main(["--space", "bimodal;gshare", "--workloads", "adv:hist,l=4",
                 "--out", str(out), "--jobs", "1", "--quiet"]) == 0
    assert json.loads(out.read_text())["workloads"] == ["adv:hist,l=4"]


@pytest.mark.parametrize("workloads", ["Kafak", "Kafka,adv:bogus"])
def test_unknown_workload_is_a_usage_error(tmp_path, capsys, workloads):
    assert main(["--space", "bimodal;gshare", "--workloads", workloads,
                 "--jobs", "1"]) == 2
    assert "invalid --workloads" in capsys.readouterr().err
    assert not (tmp_path / "cache").exists()  # nothing ran


def test_unknown_env_workload_is_a_usage_error(tmp_path, monkeypatch,
                                               capsys):
    monkeypatch.setenv("REPRO_WORKLOADS", "Kafak")
    assert main(["--budget", "short", "--space", "bimodal;gshare",
                 "--jobs", "1"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("REPRO_WORKLOADS: unknown workload 'Kafak'")
    assert len(err.splitlines()) == 1
    assert not (tmp_path / "cache").exists()  # nothing ran


def test_table_rendering_on_stdout(tmp_path, capsys):
    code = main(["--budget", "smoke", "--space", "bimodal;gshare",
                 "--workloads", "Kafka", "--jobs", "1"])
    assert code == 0
    output = capsys.readouterr().out
    assert "mean MPKI" in output
    assert "per-workload winners:" in output


def test_search_records_into_the_experiments_journal(tmp_path):
    """Explore and the experiments CLI share one checkpoint journal."""
    code, _ = small_run(tmp_path)
    assert code == 0
    assert default_path() == tmp_path / "cache" / "journal.jsonl"
    assert sorted(path.name for path in (tmp_path / "cache").glob("*.jsonl")) \
        == ["journal.jsonl"]
    with RunJournal.open() as journal:
        recorded = journal.completed()
    assert {key for _, key, _ in recorded} == {"bimodal", "gshare"}
    assert {workload for workload, _, _ in recorded} == {"Kafka"}


def test_budget_presets_are_consistent():
    assert set(BUDGETS) == {"smoke", "short", "full"}
    smoke = BUDGETS["smoke"]
    assert smoke.workloads == ("NodeApp", "Kafka")
    assert smoke.space == "smoke"
    for budget in BUDGETS.values():
        assert budget.base_instructions <= budget.resolve_full_instructions()
