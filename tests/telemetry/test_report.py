"""The telemetry read side: merging, summarizing, and the report CLI."""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

from repro import parallel, telemetry
from repro.experiments import runner
from repro.telemetry import load_events
from repro.telemetry.report import format_summary, summarize

REPO_ROOT = Path(__file__).resolve().parents[2]


@pytest.fixture(autouse=True)
def clean_collector(monkeypatch):
    monkeypatch.delenv(telemetry.ENV_VAR, raising=False)
    telemetry.reset()
    yield
    telemetry.reset()


class TestLoadEvents:
    def test_merges_files_and_sorts_by_timestamp(self, tmp_path):
        """Per-process files interleave into one time-ordered stream."""
        (tmp_path / "events-100.jsonl").write_text(
            '{"event":"a","ts":2.0,"pid":100}\n'
            '{"event":"c","ts":4.0,"pid":100}\n')
        (tmp_path / "events-200.jsonl").write_text(
            '{"event":"b","ts":3.0,"pid":200}\n')
        events = load_events(tmp_path)
        assert [e["event"] for e in events] == ["a", "b", "c"]

    def test_skips_corrupt_and_blank_lines(self, tmp_path):
        (tmp_path / "events-1.jsonl").write_text(
            '{"event":"ok","ts":1.0,"pid":1}\n'
            "\n"
            '{"event":"trunc', )
        assert [e["event"] for e in load_events(tmp_path)] == ["ok"]

    def test_single_file_path(self, tmp_path):
        file = tmp_path / "events-1.jsonl"
        file.write_text('{"event":"x","ts":1.0,"pid":1}\n')
        assert len(load_events(file)) == 1


def _result(ts, key, source, **fields):
    """One ``runner.result`` event for job (Kafka, ``key``, 1000)."""
    return {"event": "runner.result", "ts": ts, "pid": 1, "workload": "Kafka",
            "key": key, "instructions": 1000, "source": source, **fields}


class TestSummarize:
    def test_cache_and_worker_math(self):
        events = [
            _result(1.0, "a", "memory"),
            _result(2.0, "b", "disk"),
            _result(3.0, "c", "simulated", seconds=2.0),
            _result(4.0, "d", "simulated", seconds=1.0),
            {"event": "trace.cache", "ts": 1.5, "pid": 1, "hit": True},
            {"event": "trace.cache", "ts": 1.6, "pid": 1, "hit": False,
             "seconds": 0.5},
            {"event": "parallel.run_jobs", "ts": 5.0, "pid": 1,
             "requested": 6, "unique": 4, "cache_hits": 2,
             "dispatched": 2, "workers": 2, "seconds": 10.0},
            {"event": "parallel.job", "ts": 4.5, "pid": 7, "seconds": 8.0},
            {"event": "parallel.job", "ts": 4.6, "pid": 8, "seconds": 4.0},
        ]
        summary = summarize(events)
        result = summary["caches"]["result"]
        assert result["memory_hits"] == 1
        assert result["disk_hits"] == 1
        assert result["misses"] == 2
        assert result["hit_rate"] == 0.5
        assert result["simulation_seconds"] == 3.0
        assert summary["caches"]["trace"]["hit_rate"] == 0.5

        par = summary["parallel"]
        assert par["jobs_requested"] == 6
        assert par["cache_hits"] == 2
        assert par["dispatched"] == 2
        # 12s busy over 2 workers x 10s capacity.
        assert par["worker_utilization"] == pytest.approx(0.6)
        assert par["workers"]["7"]["busy_seconds"] == 8.0

    def test_batched_results_are_misses_timed_once(self):
        """``run_batch`` emits one ``batched`` result per key, each
        carrying the whole batch's seconds: every key is a miss, and the
        batch's time counts once."""
        events = [
            _result(1.0, "cached", "disk"),
            *(_result(2.0, f"first-{i}", "batched", batched=3, seconds=1.5)
              for i in range(3)),
            *(_result(3.0, f"second-{i}", "batched", batched=2, seconds=0.5)
              for i in range(2)),
        ]
        result = summarize(events)["caches"]["result"]
        assert result["misses"] == 5
        assert result["disk_hits"] == 1
        assert result["simulation_seconds"] == 2.0
        assert "simulated 5 in 2.00s" in format_summary(summarize(events))

    def test_empty_stream(self):
        summary = summarize([])
        assert summary["events"] == 0
        assert summary["caches"]["result"]["hit_rate"] is None
        assert summary["parallel"]["worker_utilization"] is None
        # The formatter copes with an all-empty summary too.
        assert "0 events" in format_summary(summary)


class TestRoundTrip:
    def test_runner_roundtrip_through_report(self, isolated_caches,
                                             monkeypatch):
        """A cached-runner session produces a summarizable JSONL log.
        Its one job was simulated, so its later memory and disk reads
        are not hits of their own."""
        tdir = isolated_caches / "telemetry"
        monkeypatch.setenv(telemetry.ENV_VAR, str(tdir))

        runner.get_result("Kafka", "bimodal")   # miss: trace gen + simulate
        runner.get_result("Kafka", "bimodal")   # memory read
        runner.clear_memory_cache()
        runner.get_result("Kafka", "bimodal")   # disk read

        summary = summarize(load_events(tdir))
        result = summary["caches"]["result"]
        assert result["memory_hits"] == 0
        assert result["disk_hits"] == 0
        assert result["misses"] == 1
        assert result["hit_rate"] == 0.0
        assert summary["caches"]["trace"]["misses"] == 1
        assert summary["simulation"]["runs"] == 1
        assert "phases" not in summary["simulation"]

        text = format_summary(summary)
        assert "result cache — hit rate 0.0% (memory 0, disk 0, " \
               "simulated 1" in text

    def test_prewarmed_figure_reads_as_cold_then_warm(self, isolated_caches,
                                                      monkeypatch):
        """A figure pass reading back what a ``-j 2`` prewarm just
        simulated is a cold run (0%); the same pass over a warm disk
        cache is all hits (100%)."""
        jobs = parallel.make_jobs([("Kafka", "bimodal"), ("Kafka", "gshare")])
        for rerun, expected in enumerate(("0.0%", "100.0%")):
            tdir = isolated_caches / f"telemetry-{rerun}"
            monkeypatch.setenv(telemetry.ENV_VAR, str(tdir))
            runner.clear_memory_cache()
            parallel.run_jobs(jobs, max_workers=2)
            for job in jobs:  # the figure pass
                runner.get_result(job.workload, job.key, job.instructions)
            telemetry.reset()

            result = summarize(load_events(tdir))["caches"]["result"]
            assert result["memory_hits"] == 0
            assert result["disk_hits"] == 2 * rerun
            assert result["misses"] == 2 * (1 - rerun)
            assert f"hit rate {expected}" in format_summary(
                summarize(load_events(tdir)))

    def test_llbp_counters_surface(self, isolated_caches, monkeypatch):
        tdir = isolated_caches / "telemetry"
        monkeypatch.setenv(telemetry.ENV_VAR, str(tdir))
        runner.get_result("Kafka", "llbp")
        llbp = summarize(load_events(tdir))["llbp"]
        assert llbp["runs"] == 1
        assert llbp["pb_hits"] + llbp["pb_misses"] > 0
        assert 0.0 <= llbp["pb_hit_rate"] <= 1.0
        assert llbp["prefetch_issued"] >= llbp["prefetch_delivered"] >= 0
        assert "pattern-buffer hit rate" in format_summary(
            summarize(load_events(tdir)))


class TestParallelMerging:
    def test_worker_events_merge_into_one_report(self, isolated_caches,
                                                 monkeypatch):
        """Child processes write their own files; the report unifies them."""
        tdir = isolated_caches / "telemetry"
        monkeypatch.setenv(telemetry.ENV_VAR, str(tdir))
        jobs = parallel.make_jobs([("Kafka", "bimodal"), ("Kafka", "gshare")])
        parallel.run_jobs(jobs, max_workers=2)

        events = load_events(tdir)
        summary = summarize(events)
        assert summary["processes"] >= 2  # parent + at least one worker
        par = summary["parallel"]
        assert par["batches"] == 1
        assert par["jobs_requested"] == 2
        assert par["dispatched"] == 2
        assert sum(w["jobs"] for w in par["workers"].values()) == 2
        assert par["worker_utilization"] is not None
        assert 0.0 < par["worker_utilization"] <= 1.0


class TestReportScript:
    def test_cli_writes_summary_json(self, isolated_caches, monkeypatch,
                                     tmp_path):
        tdir = isolated_caches / "telemetry"
        monkeypatch.setenv(telemetry.ENV_VAR, str(tdir))
        runner.get_result("Kafka", "bimodal")
        telemetry.reset()  # flush/close before another process reads

        out = tmp_path / "telemetry_summary.json"
        proc = subprocess.run(
            [sys.executable, str(REPO_ROOT / "scripts" / "report.py"),
             str(tdir), "-o", str(out)],
            capture_output=True, text=True, cwd=REPO_ROOT)
        assert proc.returncode == 0, proc.stderr
        assert "simulation" in proc.stdout
        written = json.loads(out.read_text())
        assert written["simulation"]["runs"] == 1
        assert written["caches"]["result"]["misses"] == 1

    def test_cli_rejects_missing_dir(self, tmp_path):
        proc = subprocess.run(
            [sys.executable, str(REPO_ROOT / "scripts" / "report.py"),
             str(tmp_path / "nope")],
            capture_output=True, text=True, cwd=REPO_ROOT)
        assert proc.returncode == 2


class TestExperimentsCLI:
    def test_telemetry_flag_records_figure_events(self, isolated_caches,
                                                  monkeypatch):
        from repro.experiments.__main__ import main

        tdir = isolated_caches / "telemetry"
        monkeypatch.setenv(telemetry.ENV_VAR, "0")  # restored on teardown
        assert main(["table3", "--telemetry", str(tdir)]) == 0

        events = load_events(tdir)
        kinds = {e["event"] for e in events}
        assert "experiment.heartbeat" in kinds
        assert "experiment.figure" in kinds
        assert "experiment.run" in kinds
        summary = summarize(events)
        assert "table3" in summary["figures"]


class TestRobustnessSummary:
    def test_clean_run_is_all_zero_and_unreported(self):
        summary = summarize([{"event": "sim.run", "ts": 1.0, "pid": 1,
                              "seconds": 1.0}])
        robust = summary["robustness"]
        assert robust["retries"] == 0
        assert robust["timeouts"] == 0
        assert robust["resume"] is None
        assert "robustness" not in format_summary(summary)

    def test_recovery_events_are_counted(self):
        events = [
            {"event": "parallel.retry", "ts": 1.0, "pid": 1,
             "error": "FaultInjected", "delay": 0.5, "attempt": 1},
            {"event": "parallel.retry", "ts": 2.0, "pid": 1,
             "error": "worker_lost", "delay": 1.0, "attempt": 2},
            {"event": "parallel.timeout", "ts": 3.0, "pid": 1,
             "timeout": 5.0},
            {"event": "parallel.degraded", "ts": 6.0, "pid": 1,
             "remaining": 2},
            {"event": "parallel.fault", "ts": 7.0, "pid": 9,
             "mode": "kill"},
            {"event": "parallel.cache_corrupt", "ts": 8.0, "pid": 1},
            {"event": "experiment.resume", "ts": 9.0, "pid": 1,
             "journaled": 3, "total": 7},
        ]
        robust = summarize(events)["robustness"]
        assert robust["retries"] == 2
        assert robust["retry_errors"] == {"FaultInjected": 1,
                                          "worker_lost": 1}
        assert robust["backoff_seconds"] == 1.5
        assert robust["timeouts"] == 1
        assert robust["degraded_to_serial"] == 1
        assert robust["faults_injected"] == 1
        assert robust["cache_corrupt"] == 1
        assert robust["resume"] == {"journaled": 3, "total": 7}

    def test_bumpy_run_renders_robustness_section(self):
        events = [
            {"event": "parallel.retry", "ts": 1.0, "pid": 1,
             "error": "timeout", "delay": 0.25, "attempt": 1},
            {"event": "parallel.timeout", "ts": 2.0, "pid": 1,
             "timeout": 5.0},
            {"event": "experiment.resume", "ts": 3.0, "pid": 1,
             "journaled": 2, "total": 4},
        ]
        text = format_summary(summarize(events))
        assert "robustness" in text
        assert "timeout x1" in text
        assert "resumed: 2/4" in text
