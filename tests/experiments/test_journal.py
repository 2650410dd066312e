"""Checkpoint journal: crash recovery end to end, on every run."""

from __future__ import annotations

import json

import pytest

from repro import parallel, telemetry
from repro.experiments import journal as journal_mod, runner
from repro.experiments.journal import RunJournal, default_path, result_digest
from repro.experiments.runner import RESULTS_VERSION


@pytest.fixture(autouse=True)
def _teardown():
    yield
    telemetry.reset()


class TestJournalFile:
    def test_default_path_sits_next_to_result_cache(self, isolated_caches,
                                                     monkeypatch):
        """Moving REPRO_CACHE_DIR moves traces, results and both
        journals together."""
        from repro.explore.__main__ import journal_path

        for root in (isolated_caches / "cache", isolated_caches / "moved"):
            monkeypatch.setenv("REPRO_CACHE_DIR", str(root))
            runner.clear_memory_cache()
            runner.get_result("Kafka", "bimodal")
            written = sorted(path.parent.name
                             for path in root.glob("*/Kafka-*"))
            assert written == ["results", "traces"]
            assert default_path() == root / "journal.jsonl"
            assert journal_path() == root / "explore-journal.jsonl"

    def test_reopen_keeps_earlier_runs(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        with RunJournal.open(path) as journal:
            journal.record(("Kafka", "bimodal", 60_000), "d1")
        with RunJournal.open(path) as journal:
            assert journal.digest(("Kafka", "bimodal", 60_000)) == "d1"
            journal.record(("Kafka", "gshare", 60_000), "d2")
        with RunJournal.open(path) as journal:
            assert len(journal) == 2

    def test_results_version_mismatch_invalidates(self, tmp_path,
                                                  monkeypatch):
        path = tmp_path / "journal.jsonl"
        with RunJournal.open(path) as journal:
            journal.record(("Kafka", "bimodal", 60_000), "d1")
        # Rewrite the header as if an older code version had written it.
        lines = path.read_text().splitlines()
        header = json.loads(lines[0])
        header["results_version"] = RESULTS_VERSION - 1
        path.write_text("\n".join([json.dumps(header)] + lines[1:]) + "\n")
        with RunJournal.open(path) as journal:
            assert len(journal) == 0  # stale completions not trusted

    def test_torn_trailing_line_is_skipped(self, tmp_path):
        """A crash can cut the journal at any byte.  Every prefix loads
        to exactly the entries whose lines it holds whole, with their
        digests, and a record the next run appends survives a reload."""
        path = tmp_path / "journal.jsonl"
        entries = {("Kafka", "bimodal", 60_000): "d1",
                   ("Kafka", "llbp:w=8,d=2", 60_000): "d2",
                   ("NodeApp", "tsl64", 800_000): "d3"}
        with RunJournal.open(path) as journal:
            for job, digest in entries.items():
                journal.record(job, digest)
        data = path.read_bytes()
        # Where each line's JSON ends: the header's, then each entry's.
        ends = [i for i, byte in enumerate(data) if byte == ord("\n")]
        assert len(ends) == 1 + len(entries)
        later = ("Tomcat", "gshare", 60_000)
        for cut in range(len(data) + 1):
            path.write_bytes(data[:cut])
            whole = {job: digest for (job, digest), end
                     in zip(entries.items(), ends[1:])
                     if cut >= end and cut >= ends[0]}
            with RunJournal.open(path) as journal:
                assert {job: journal.digest(job)
                        for job in journal.completed()} == whole, cut
                journal.record(later, "d4")
            with RunJournal.open(path) as journal:
                assert journal.digest(later) == "d4", cut
                assert journal.completed() == {*whole, later}, cut


class TestWriteFailure:
    def test_write_failure_warns_once_then_recovers(self, tmp_path,
                                                    monkeypatch):
        """A failed append must not kill checkpointing for the run: the
        user is warned (once) and the next record reopens the file."""
        monkeypatch.setenv(telemetry.ENV_VAR, str(tmp_path / "telemetry"))
        path = tmp_path / "journal.jsonl"
        journal = RunJournal.open(path)
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
        with RunJournal.open(path) as reloaded:
            assert ("Kafka", "gshare", 60_000) in reloaded.completed()

    def test_persistent_failure_warns_only_once(self, tmp_path,
                                                monkeypatch, recwarn):
        journal = RunJournal.open(tmp_path / "journal.jsonl")

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
        journal = RunJournal.open()
        jobs = parallel.make_jobs([("Kafka", "bimodal"), ("Kafka", "gshare")])
        results = parallel.run_jobs(jobs, max_workers=1, journal=journal)
        journal.close()

        reloaded = RunJournal.open()
        assert reloaded.completed() == {tuple(job) for job in jobs}
        for job in jobs:
            assert reloaded.matches(job, result_digest(results[job])) is True
        reloaded.close()

    def test_corrupt_cache_entry_is_detected_and_rerun(self, isolated_caches,
                                                       monkeypatch):
        journal = RunJournal.open()
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
        journal = RunJournal.open()
        completed = len(journal)
        journal.close()
        assert completed == 4  # tsl64 + llbp + llbp:lat0 + tsl512

        # "Crash": drop all in-memory state, keep disk (cache + journal).
        runner.clear_memory_cache()
        telemetry.reset()

        # The same command again: each served result is digested once,
        # for both the check and the record.
        digested = []
        real_digest = journal_mod.result_digest

        def counting(result):
            digested.append(result)
            return real_digest(result)

        monkeypatch.setattr(journal_mod, "result_digest", counting)
        assert main(["fig09", "-j", "2",
                     "--telemetry", str(tdir / "second")]) == 0
        assert len(digested) == 4
        events = telemetry.load_events(tdir / "second")
        (resume,) = [e for e in events if e["event"] == "experiment.resume"]
        assert resume["journaled"] == 4
        assert resume["total"] == 4
        # fig09 runs each workload's keys as one batched task, whose
        # results carry source="batched": both sources are simulations.
        simulated = [e for e in events if e["event"] == "runner.result"
                     and e.get("source") in ("simulated", "batched")]
        assert simulated == []  # the rerun re-executed nothing
        assert "[resume]" in capsys.readouterr().out

    def test_serial_run_journals_and_verifies_digests(self, isolated_caches,
                                                      capsys):
        """-j 1 must checkpoint and digest-check too, not just -j N."""
        from repro.experiments.__main__ import main

        assert main(["fig09", "-j", "1"]) == 0
        journal = RunJournal.open()
        assert len(journal) == 4
        journal.close()

        # Poison one cached result; a plain serial rerun must notice
        # (digest mismatch) and recompute rather than serve it.
        clean = capsys.readouterr().out
        (path, *_) = (isolated_caches / "cache" / "results").glob("*.json")
        data = json.loads(path.read_text())
        data["mispredictions"] += 50
        path.write_text(json.dumps(data))
        runner.clear_memory_cache()

        assert main(["fig09", "-j", "1"]) == 0
        resumed = capsys.readouterr().out
        rewritten = json.loads(path.read_text())
        assert rewritten["mispredictions"] == data["mispredictions"] - 50

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
        assert ("rerun the same command to resume: "
                "python -m repro.experiments table3 -j 1"
                in capsys.readouterr().err)
