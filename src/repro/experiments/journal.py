"""Checkpoint journal: durable record of completed simulation jobs.

A figure run is a long sweep of (workload, predictor-key, instructions)
jobs.  The result cache already stores each job's *bytes*; the journal,
an append-only JSONL file next to the cache, stores the *fact* that the
job finished and a digest of what it produced.  Every
:func:`repro.parallel.run_jobs` call — each figure prewarm, explore
rung and characterization grid — opens it with what earlier runs
recorded, checks each cached result it serves and records each result
it settles, and that is what makes crash recovery trustworthy:

* after a crash or SIGINT, rerunning the same command re-executes only
  jobs whose results are not cached — finished work survives;
* a cache entry that *exists* but whose digest contradicts the journal
  (torn write, disk trouble, stale tooling) is detected and re-run
  instead of silently poisoning a figure.

Each line is one JSON object.  The first is a header pinning the
journal format and the runner's ``RESULTS_VERSION``; a journal from an
incompatible version is discarded wholesale (its entries describe
results the current code would not reproduce).  Entry lines are flushed
as they are written, so the journal is always at most one job behind
reality — the worst a crash can lose is the job in flight.  Unreadable
or truncated lines are skipped on load, mirroring the result cache's
corruption tolerance, and a line torn by a crash is ended before the
next run appends to the file.
"""

from __future__ import annotations

import hashlib
import json
import warnings
from pathlib import Path
from typing import Dict, Optional, Set, TextIO, Tuple, Union

from repro import telemetry
from repro.traces.store import cache_root

#: (workload, predictor key, instructions) — matches SimJob's fields.
JobKey = Tuple[str, str, int]

_FORMAT_VERSION = 1


def result_digest(result) -> str:
    """Canonical content digest of a :class:`SimulationResult`."""
    from repro.experiments.runner import _to_json

    payload = json.dumps(_to_json(result), sort_keys=True,
                         separators=(",", ":"))
    return hashlib.sha256(payload.encode()).hexdigest()


def default_path() -> Path:
    """The journal's on-disk home, next to the result cache."""
    return cache_root() / "journal.jsonl"


class RunJournal:
    """Append-only completion journal with digest verification.

    Use :meth:`open`, which loads what earlier runs recorded;
    :meth:`record` / :meth:`record_result` append, :meth:`__contains__`
    and :meth:`matches` query.  Only the process that calls ``run_jobs``
    writes it; its children never do.
    """

    def __init__(self, path: Union[str, Path]) -> None:
        self.path = Path(path)
        self._digests: Dict[JobKey, str] = {}
        self._fh: Optional[TextIO] = None
        self._warned_write_failure = False
        self._torn_tail = False

    @classmethod
    def open(cls, path: Union[str, Path, None] = None) -> "RunJournal":
        """Open the journal at ``path`` (default :func:`default_path`)
        with the completions earlier runs recorded.  A journal of another
        format or ``RESULTS_VERSION`` is discarded."""
        journal = cls(path if path is not None else default_path())
        journal._load()
        return journal

    # -- querying ---------------------------------------------------

    def __len__(self) -> int:
        return len(self._digests)

    def __contains__(self, job: JobKey) -> bool:
        return tuple(job) in self._digests

    def completed(self) -> Set[JobKey]:
        """The set of jobs the journal records as finished."""
        return set(self._digests)

    def digest(self, job: JobKey) -> Optional[str]:
        return self._digests.get(tuple(job))

    def matches(self, job: JobKey, digest: str) -> Optional[bool]:
        """Does ``digest`` (a :func:`result_digest`) match what the
        journal saw for ``job``?

        ``None`` when the journal has no opinion (job never recorded);
        ``False`` is the corruption signal — the caller holds bytes that
        differ from what a completed run produced.
        """
        expected = self._digests.get(tuple(job))
        if expected is None:
            return None
        return expected == digest

    # -- recording --------------------------------------------------

    def record(self, job: JobKey, digest: str) -> None:
        """Append one completion (idempotent per job)."""
        job = tuple(job)
        if self._digests.get(job) == digest:
            return
        self._digests[job] = digest
        workload, key, instructions = job
        self._append({"workload": workload, "key": key,
                      "instructions": int(instructions), "digest": digest})

    def record_result(self, job: JobKey, result) -> None:
        """Append one completion, digesting ``result`` for verification."""
        self.record(job, result_digest(result))

    def close(self) -> None:
        if self._fh is not None:
            try:
                self._fh.close()
            except OSError:
                pass
            self._fh = None

    def __enter__(self) -> "RunJournal":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- file plumbing ----------------------------------------------

    def _results_version(self) -> int:
        from repro.experiments.runner import RESULTS_VERSION

        return RESULTS_VERSION

    def _header(self) -> dict:
        return {"journal": _FORMAT_VERSION,
                "results_version": self._results_version()}

    def _append(self, record: dict) -> None:
        try:
            if self._fh is None:
                self.path.parent.mkdir(parents=True, exist_ok=True)
                fresh = not self.path.exists() or self.path.stat().st_size == 0
                self._fh = open(self.path, "a")
                if fresh:
                    self._write_line(self._header())
                elif self._torn_tail:
                    # End the line a crash tore, or this record would
                    # join it and be skipped on the next load.
                    self._fh.write("\n")
                self._torn_tail = False
            self._write_line(record)
        except OSError as error:
            # Journalling is best-effort, like the result cache: losing
            # a checkpoint must never take down the run it checkpoints.
            # But not silently — a dead journal means later runs cannot
            # check this run's results — so the first failure warns and
            # lands in telemetry.  The handle is dropped and the open
            # retried on the next record, in case the condition (full
            # disk, transient I/O error) clears.
            self.close()
            if not self._warned_write_failure:
                self._warned_write_failure = True
                warnings.warn(
                    f"checkpoint journal write to {self.path} failed "
                    f"({error}); later runs cannot check these results "
                    "against their digests", RuntimeWarning, stacklevel=4)
                telemetry.emit("journal.write_failed", path=str(self.path),
                               error=type(error).__name__)

    def _write_line(self, record: dict) -> None:
        assert self._fh is not None
        json.dump(record, self._fh, separators=(",", ":"))
        self._fh.write("\n")
        self._fh.flush()

    def _load(self) -> None:
        try:
            text = self.path.read_text(errors="replace")
        except OSError:
            return
        self._torn_tail = not text.endswith("\n")
        entries: Dict[JobKey, str] = {}
        header_ok = False
        for i, line in enumerate(text.splitlines()):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except ValueError:
                continue  # torn write mid-crash; later lines may be fine
            if not isinstance(record, dict):
                continue
            if i == 0 or "journal" in record:
                header_ok = (record.get("journal") == _FORMAT_VERSION and
                             record.get("results_version")
                             == self._results_version())
                continue
            try:
                job = (str(record["workload"]), str(record["key"]),
                       int(record["instructions"]))
                entries[job] = str(record["digest"])
            except (KeyError, TypeError, ValueError):
                continue
        if header_ok:
            self._digests = entries
        else:
            # Different format or RESULTS_VERSION: these completions
            # describe results the current code would not produce.
            try:
                self.path.unlink()
            except OSError:
                pass
