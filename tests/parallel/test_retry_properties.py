"""Property tests for the fault-tolerance layer.

Three families, one per load-bearing invariant:

* backoff delays are **bounded** by ``max_delay`` and **monotone
  non-decreasing** across attempts, jitter included — a retry storm can
  neither sleep unboundedly nor retry *faster* as things get worse;
* the checkpoint journal **round-trips arbitrary job keys** (workload
  and predictor-key strings are user input: commas, colons, unicode,
  newlines all survive the JSONL encoding);
* **resume ∘ crash-at-any-job == uninterrupted run**: crashing after
  any prefix of jobs and resuming executes each job exactly once
  overall and completes the same set.
"""

from __future__ import annotations

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, strategies as st  # noqa: E402

from repro.experiments.journal import RunJournal  # noqa: E402
from repro.parallel.retry import RetryPolicy, backoff_delay  # noqa: E402

# -- backoff -----------------------------------------------------------

policies = st.builds(
    RetryPolicy,
    max_attempts=st.integers(1, 20),
    base_delay=st.floats(0.0, 10.0, allow_nan=False),
    max_delay=st.floats(0.0, 120.0, allow_nan=False),
    jitter=st.floats(-1.0, 3.0, allow_nan=False),  # clamped internally
)

keys = st.one_of(st.text(max_size=30),
                 st.tuples(st.text(max_size=10), st.text(max_size=10),
                           st.integers(0, 10**9)))


class TestBackoffProperties:
    @given(policy=policies, key=keys, attempt=st.integers(1, 40))
    def test_bounded(self, policy, key, attempt):
        delay = backoff_delay(attempt, policy, key=key)
        assert 0.0 <= delay <= policy.max_delay

    @given(policy=policies, key=keys)
    def test_monotone_non_decreasing(self, policy, key):
        delays = [backoff_delay(attempt, policy, key=key)
                  for attempt in range(1, 16)]
        assert delays == sorted(delays)

    @given(policy=policies, key=keys, attempt=st.integers(1, 40))
    def test_deterministic_per_key_and_attempt(self, policy, key, attempt):
        assert (backoff_delay(attempt, policy, key=key)
                == backoff_delay(attempt, policy, key=key))

    def test_rejects_attempt_zero(self):
        with pytest.raises(ValueError):
            backoff_delay(0, RetryPolicy())


# -- journal round-trip ------------------------------------------------

job_keys = st.tuples(
    st.text(min_size=1, max_size=40),   # workload (arbitrary text)
    st.text(min_size=1, max_size=60),   # predictor key (commas, colons…)
    st.integers(1, 10**12),             # instructions
)
digests = st.text(min_size=1, max_size=64)


class TestJournalRoundTrip:
    @given(entries=st.dictionaries(job_keys, digests, max_size=25))
    def test_record_then_reload_preserves_everything(self, entries,
                                                     tmp_path_factory):
        path = tmp_path_factory.mktemp("journal") / "journal.jsonl"
        with RunJournal.open(path) as journal:
            for job, digest in entries.items():
                journal.record(job, digest)
            assert journal.completed() == set(entries)

        with RunJournal.open(path) as reloaded:
            assert reloaded.completed() == set(entries)
            for job, digest in entries.items():
                assert job in reloaded
                assert reloaded.digest(job) == digest

    @given(job=job_keys, first=digests, second=digests)
    def test_last_digest_wins(self, job, first, second, tmp_path_factory):
        path = tmp_path_factory.mktemp("journal") / "journal.jsonl"
        with RunJournal.open(path) as journal:
            journal.record(job, first)
            journal.record(job, second)
        with RunJournal.open(path) as reloaded:
            assert reloaded.digest(job) == second


# -- resume ∘ crash == uninterrupted run -------------------------------


class _Crash(Exception):
    pass


def _journalled_run(jobs, journal, crash_after=None):
    """A minimal journal-driven executor: skip completed, record the
    rest, optionally crash once ``crash_after`` jobs have executed."""
    executed = []
    for job in jobs:
        if job in journal:
            continue
        if crash_after is not None and len(executed) >= crash_after:
            raise _Crash
        executed.append(job)
        journal.record(job, digest=f"digest-of-{job}")
    return executed


class TestCrashResumeEquivalence:
    @given(jobs=st.lists(job_keys, unique=True, max_size=15),
           data=st.data())
    def test_resume_after_crash_executes_each_job_exactly_once(
            self, jobs, data, tmp_path_factory):
        directory = tmp_path_factory.mktemp("journal")
        path = directory / "journal.jsonl"

        # Uninterrupted baseline: every job runs, in order.
        with RunJournal.open(directory / "baseline.jsonl") as journal:
            baseline = _journalled_run(jobs, journal)
        assert baseline == jobs

        # Crash after an arbitrary number of completed jobs…
        crash_after = data.draw(st.integers(0, len(jobs)),
                                label="crash_after")
        with RunJournal.open(path) as journal:
            try:
                first = _journalled_run(jobs, journal, crash_after)
            except _Crash:
                first = jobs[:crash_after]

        # …then resume: only the unfinished tail runs, nothing twice,
        # and the union equals the uninterrupted run.
        with RunJournal.open(path) as journal:
            second = _journalled_run(jobs, journal)
            assert first + second == baseline
            assert journal.completed() == set(baseline)
