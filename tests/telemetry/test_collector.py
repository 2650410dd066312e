"""The telemetry write side: opt-in, JSONL sink, zero overhead when off.

The contract under test: with ``REPRO_TELEMETRY`` unset the whole layer
is inert (no events, no files, no behavioural difference in the engine);
with it set, every emit lands as one JSON line in a per-pid file.
"""

from __future__ import annotations

import json

import pytest

from repro import telemetry
from repro.predictors.bimodal import Bimodal
from repro.sim.engine import run_simulation


@pytest.fixture(autouse=True)
def clean_collector(monkeypatch):
    """Start disabled, and drop any collector state the test created."""
    monkeypatch.delenv(telemetry.ENV_VAR, raising=False)
    telemetry.reset()
    yield
    telemetry.reset()


class TestDisabled:
    def test_disabled_by_default(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert not telemetry.enabled()
        telemetry.emit("anything", value=1)
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("value", ["", "0", "off", "false", "no", "OFF"])
    def test_off_values(self, monkeypatch, value):
        monkeypatch.setenv(telemetry.ENV_VAR, value)
        assert not telemetry.enabled()

    def test_no_files_written_when_off(self, tmp_path, monkeypatch,
                                       pattern_trace):
        monkeypatch.chdir(tmp_path)
        run_simulation(pattern_trace, Bimodal())
        assert list(tmp_path.iterdir()) == []

    def test_phase_still_runs_body_when_off(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        ran = []
        with telemetry.phase("x"):
            ran.append(True)
        assert ran == [True]
        assert list(tmp_path.iterdir()) == []


class TestEnabled:
    def test_emit_writes_jsonl(self, monkeypatch, tmp_path):
        monkeypatch.setenv(telemetry.ENV_VAR, str(tmp_path))
        assert telemetry.enabled()
        telemetry.emit("unit.test", value=42, label="x")

        files = list(tmp_path.glob("events-*.jsonl"))
        assert len(files) == 1
        (record,) = [json.loads(line) for line in
                     files[0].read_text().splitlines()]
        assert record["event"] == "unit.test"
        assert record["value"] == 42
        assert record["label"] == "x"
        assert isinstance(record["ts"], float)
        assert isinstance(record["pid"], int)

    def test_events_read_back_in_order(self, monkeypatch, tmp_path):
        monkeypatch.setenv(telemetry.ENV_VAR, str(tmp_path))
        telemetry.emit("a")
        telemetry.emit("b")
        events = telemetry.load_events(tmp_path)
        assert [e["event"] for e in events] == ["a", "b"]

    def test_phase_records_seconds(self, monkeypatch, tmp_path):
        monkeypatch.setenv(telemetry.ENV_VAR, str(tmp_path))
        with telemetry.phase("timed.block", step="s1"):
            pass
        (event,) = telemetry.load_events(tmp_path)
        assert event["event"] == "timed.block"
        assert event["step"] == "s1"
        assert event["seconds"] >= 0.0

    def test_env_change_swaps_sink(self, monkeypatch, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        monkeypatch.setenv(telemetry.ENV_VAR, str(a))
        telemetry.emit("first")
        monkeypatch.setenv(telemetry.ENV_VAR, str(b))
        telemetry.emit("second")
        assert len(list(a.glob("*.jsonl"))) == 1
        assert len(list(b.glob("*.jsonl"))) == 1

    def test_configure_and_disable(self, monkeypatch, tmp_path):
        """``configure`` sets the variable children inherit; clearing
        it turns collection off again."""
        monkeypatch.setenv(telemetry.ENV_VAR, "0")  # restored on teardown
        telemetry.configure(tmp_path)
        assert telemetry.enabled()
        monkeypatch.delenv(telemetry.ENV_VAR)
        assert not telemetry.enabled()


class TestEngineInstrumentation:
    def test_results_identical_on_and_off(self, monkeypatch, tmp_path,
                                          pattern_trace):
        """Telemetry must observe the simulation, never perturb it."""
        off = run_simulation(pattern_trace, Bimodal())
        monkeypatch.setenv(telemetry.ENV_VAR, str(tmp_path))
        on = run_simulation(pattern_trace, Bimodal())
        assert on == off

    def test_engines_emit_the_same_run_event(self, monkeypatch, tmp_path,
                                             pattern_trace):
        """Each run emits one ``sim.run``; the two engines' events carry
        the same fields and, timing and engine name aside, the same
        values."""
        monkeypatch.setenv(telemetry.ENV_VAR, str(tmp_path))
        runs = {}
        for engine in ("python", "array"):
            result = run_simulation(pattern_trace, Bimodal(), engine=engine)
            (run,) = [e for e in telemetry.load_events(tmp_path)
                      if e["event"] == "sim.run" and e["engine"] == engine]
            assert run["mispredictions"] == result.mispredictions
            assert run["seconds"] >= 0
            runs[engine] = {k: v for k, v in run.items()
                            if k not in ("ts", "seconds", "engine")}
        assert ({e["event"] for e in telemetry.load_events(tmp_path)}
                == {"sim.run"})
        assert runs["python"] == runs["array"]
        assert runs["array"]["workload"] == pattern_trace.name
        assert runs["array"]["branches"] == len(pattern_trace)
