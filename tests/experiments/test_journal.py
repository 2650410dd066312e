"""Checkpoint journal + ``--resume``: crash recovery end to end."""

from __future__ import annotations

import json

import pytest

from repro import parallel, telemetry
from repro.experiments import runner
from repro.experiments.journal import RunJournal, default_path, result_digest
from repro.experiments.runner import RESULTS_VERSION


@pytest.fixture(autouse=True)
def _teardown():
    yield
    telemetry.reset()


class TestJournalFile:
    def test_default_path_sits_next_to_result_cache(self, isolated_caches):
        path = default_path()
        assert path.name == "journal.jsonl"
        assert path.parent == isolated_caches / "cache"

    def test_fresh_open_discards_previous_run(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        with RunJournal.open(path, resume=False) as journal:
            journal.record(("Kafka", "bimodal", 60_000), "d1")
        with RunJournal.open(path, resume=False) as journal:
            assert len(journal) == 0

    def test_results_version_mismatch_invalidates(self, tmp_path,
                                                  monkeypatch):
        path = tmp_path / "journal.jsonl"
        with RunJournal.open(path, resume=False) as journal:
            journal.record(("Kafka", "bimodal", 60_000), "d1")
        # Rewrite the header as if an older code version had written it.
        lines = path.read_text().splitlines()
        header = json.loads(lines[0])
        header["results_version"] = RESULTS_VERSION - 1
        path.write_text("\n".join([json.dumps(header)] + lines[1:]) + "\n")
        with RunJournal.open(path, resume=True) as journal:
            assert len(journal) == 0  # stale completions not trusted

    def test_torn_trailing_line_is_skipped(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        with RunJournal.open(path, resume=False) as journal:
            journal.record(("Kafka", "bimodal", 60_000), "d1")
        with open(path, "a") as fh:
            fh.write('{"workload": "Kafka", "key": "gsh')  # crash mid-write
        with RunJournal.open(path, resume=True) as journal:
            assert journal.completed() == {("Kafka", "bimodal", 60_000)}


class TestWriteFailure:
    def test_write_failure_warns_once_then_recovers(self, tmp_path,
                                                    monkeypatch):
        """A failed append must not kill checkpointing for the run: the
        user is warned (once) and the next record reopens the file."""
        monkeypatch.setenv(telemetry.ENV_VAR, str(tmp_path / "telemetry"))
        path = tmp_path / "journal.jsonl"
        journal = RunJournal.open(path, resume=False)
        real = RunJournal._write_line
        failures = {"left": 1}

        def flaky(self, record):
            if failures["left"]:
                failures["left"] -= 1
                raise OSError("disk full")
            real(self, record)

        monkeypatch.setattr(RunJournal, "_write_line", flaky)
        with pytest.warns(RuntimeWarning, match="journal write"):
            journal.record(("Kafka", "bimodal", 60_000), "d1")
        journal.record(("Kafka", "gshare", 60_000), "d2")
        journal.close()

        # The failure is visible in telemetry, and the journal carried
        # on: the post-failure completion survived to disk.
        kinds = [e["event"] for e in telemetry.events()]
        assert "journal.write_failed" in kinds
        with RunJournal.open(path, resume=True) as reloaded:
            assert ("Kafka", "gshare", 60_000) in reloaded.completed()

    def test_persistent_failure_warns_only_once(self, tmp_path,
                                                monkeypatch, recwarn):
        journal = RunJournal.open(tmp_path / "journal.jsonl", resume=False)

        def broken(self, record):
            raise OSError("read-only file system")

        monkeypatch.setattr(RunJournal, "_write_line", broken)
        journal.record(("Kafka", "bimodal", 60_000), "d1")
        journal.record(("Kafka", "gshare", 60_000), "d2")
        journal.close()
        warned = [w for w in recwarn.list
                  if "journal write" in str(w.message)]
        assert len(warned) == 1


class TestExecutorIntegration:
    def test_run_jobs_records_completions(self, isolated_caches):
        journal = RunJournal.open(resume=False)
        jobs = parallel.make_jobs([("Kafka", "bimodal"), ("Kafka", "gshare")])
        results = parallel.run_jobs(jobs, max_workers=1, journal=journal)
        journal.close()

        reloaded = RunJournal.open(resume=True)
        assert reloaded.completed() == {tuple(job) for job in jobs}
        for job in jobs:
            assert reloaded.matches(tuple(job), results[job]) is True
        reloaded.close()

    def test_corrupt_cache_entry_is_detected_and_rerun(self, isolated_caches,
                                                       monkeypatch):
        journal = RunJournal.open(resume=False)
        (job,) = parallel.make_jobs([("Kafka", "bimodal")])
        (good,) = parallel.run_jobs([job], max_workers=1,
                                    journal=journal).values()

        # Corrupt the cached bytes in a way plain JSON parsing accepts.
        (path,) = (isolated_caches / "cache" / "results").glob("*.json")
        data = json.loads(path.read_text())
        data["mispredictions"] += 1
        path.write_text(json.dumps(data))
        runner.clear_memory_cache()

        monkeypatch.setenv("REPRO_TELEMETRY",
                           str(isolated_caches / "telemetry"))
        (again,) = parallel.run_jobs([job], max_workers=1,
                                     journal=journal).values()
        journal.close()
        assert again == good  # recomputed, not the poisoned bytes
        kinds = [e["event"] for e in telemetry.events()]
        assert "parallel.cache_corrupt" in kinds

    def test_digest_is_content_addressed(self, isolated_caches):
        a = runner.get_result("Kafka", "bimodal")
        b = runner.get_result("Kafka", "gshare")
        assert result_digest(a) == result_digest(a)
        assert result_digest(a) != result_digest(b)


class TestResumeCLI:
    def test_interrupted_run_resumes_without_resimulating(
            self, isolated_caches, monkeypatch, capsys):
        from repro.experiments.__main__ import main

        tdir = isolated_caches / "telemetry"
        monkeypatch.setenv(telemetry.ENV_VAR, "0")  # flag drives it
        assert main(["fig09", "-j", "2",
                     "--telemetry", str(tdir / "first")]) == 0
        journal = RunJournal.open(resume=True)
        completed = len(journal)
        journal.close()
        assert completed == 4  # tsl64 + llbp + llbp:lat0 + tsl512

        # "Crash": drop all in-memory state, keep disk (cache + journal).
        runner.clear_memory_cache()
        telemetry.reset()

        assert main(["fig09", "-j", "2", "--resume",
                     "--telemetry", str(tdir / "second")]) == 0
        events = telemetry.load_events(tdir / "second")
        (resume,) = [e for e in events if e["event"] == "experiment.resume"]
        assert resume["journaled"] == 4
        assert resume["total"] == 4
        # fig09 runs each workload's keys as one batched task, whose
        # results carry source="batched": both sources are simulations.
        simulated = [e for e in events if e["event"] == "runner.result"
                     and e.get("source") in ("simulated", "batched")]
        assert simulated == []  # resume re-executed nothing
        assert "[resume]" in capsys.readouterr().out

    def test_serial_run_journals_and_verifies_digests(self, isolated_caches,
                                                      capsys):
        """-j 1 must checkpoint and digest-check too, not just -j N."""
        from repro.experiments.__main__ import main

        assert main(["fig09", "-j", "1"]) == 0
        journal = RunJournal.open(resume=True)
        assert len(journal) == 4
        journal.close()

        # Poison one cached result; a serial --resume run must notice
        # (digest mismatch) and recompute rather than serve it.
        clean = capsys.readouterr().out
        (path, *_) = (isolated_caches / "cache" / "results").glob("*.json")
        data = json.loads(path.read_text())
        data["mispredictions"] += 50
        path.write_text(json.dumps(data))
        runner.clear_memory_cache()

        assert main(["fig09", "-j", "1", "--resume"]) == 0
        resumed = capsys.readouterr().out

        def figure(text):
            return [ln for ln in text.splitlines()
                    if ln and not ln.startswith("[")
                    and not ln.startswith("===")]

        assert figure(resumed) == figure(clean)

    def test_keyboard_interrupt_reports_resume_hint(self, isolated_caches,
                                                    monkeypatch, capsys):
        from repro.experiments import __main__ as cli

        def boom():
            raise KeyboardInterrupt

        monkeypatch.setitem(cli._EXPERIMENTS, "table3",
                            ("Table III — latency/energy", boom, None))
        assert cli.main(["table3", "-j", "1"]) == 130
        assert "--resume" in capsys.readouterr().err
