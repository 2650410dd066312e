"""Format-v2 aux sections: round-trip, degradation, in-place upgrade.

Aux sections carry *derived* data (the array engine's precomputed hash
columns), so the failure contract differs from the main trace: a corrupt
or alien aux section must never fail the trace load — it degrades to "the
columns are missing, recompute and republish", surfaced through
``trace.store_stale`` telemetry.  Only an unreadable *container* (future
format version) fails, and the cache turns even that into a regenerating
miss.
"""

from __future__ import annotations

import tracemalloc
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest

from repro import telemetry
from repro.traces import store
from repro.traces.store import (
    TraceStoreError,
    TraceStoreVersionError,
    append_aux,
    pack_trace,
    read_packed,
    write_packed,
)


def _aux_arrays():
    return {
        "cols/tsl:deadbeef": np.arange(24, dtype=np.uint16).reshape(6, 4),
        "cols/gshare:14:14": np.arange(6, dtype=np.uint32),
    }


def _assert_aux_equal(actual, expected):
    assert sorted(actual) == sorted(expected)
    for key in expected:
        assert actual[key].dtype == expected[key].dtype
        assert actual[key].shape == expected[key].shape
        assert np.array_equal(actual[key], expected[key])


class TestAuxRoundTrip:
    def test_columns_survive_pack_cycle(self, mixed_trace, tmp_path):
        mixed_trace.aux.update(_aux_arrays())
        path = tmp_path / "t.rpt"
        write_packed(mixed_trace, path)
        assert path.read_bytes() == pack_trace(mixed_trace)
        _assert_aux_equal(read_packed(path).aux, _aux_arrays())

    def test_no_aux_reads_back_empty(self, mixed_trace, tmp_path):
        path = tmp_path / "t.rpt"
        write_packed(mixed_trace, path)
        assert read_packed(path).aux == {}

    def test_unsupported_dtype_rejected(self, mixed_trace, tmp_path):
        mixed_trace.aux["bad"] = np.zeros(4, dtype=np.float64)
        with pytest.raises(ValueError, match="unsupported dtype"):
            write_packed(mixed_trace, tmp_path / "t.rpt")


class TestVersionCompatibility:
    def test_v1_file_reads_with_empty_aux(self, mixed_trace, tmp_path,
                                          monkeypatch):
        monkeypatch.setattr(store, "_FORMAT_VERSION", 1)
        path = tmp_path / "v1.rpt"
        write_packed(mixed_trace, path)
        monkeypatch.undo()
        trace = read_packed(path)
        assert trace.aux == {}
        assert np.array_equal(trace.pcs, mixed_trace.pcs)

    def test_v1_rejects_trailing_bytes(self, mixed_trace, tmp_path,
                                       monkeypatch):
        """v1 predates aux sections: any trailing bytes are corruption."""
        monkeypatch.setattr(store, "_FORMAT_VERSION", 1)
        path = tmp_path / "v1.rpt"
        write_packed(mixed_trace, path)
        monkeypatch.undo()
        path.write_bytes(path.read_bytes() + b"\x00" * 64)
        with pytest.raises(TraceStoreError, match="truncated"):
            read_packed(path)

    def test_future_version_raises_version_error(self, mixed_trace,
                                                 tmp_path):
        path = tmp_path / "t.rpt"
        write_packed(mixed_trace, path)
        data = bytearray(path.read_bytes())
        data[4:6] = (99).to_bytes(2, "little")
        path.write_bytes(bytes(data))
        with pytest.raises(TraceStoreVersionError):
            read_packed(path)

    def test_cache_degrades_future_version_to_stale_miss(
            self, mixed_trace, tmp_path, monkeypatch):
        trace_store = store.TraceStore(tmp_path / "root")
        path = trace_store.store(mixed_trace, "mixed", seed=1,
                                 instructions=100)
        data = bytearray(path.read_bytes())
        data[4:6] = (99).to_bytes(2, "little")
        path.write_bytes(bytes(data))
        monkeypatch.setenv("REPRO_TELEMETRY", str(tmp_path / "events"))
        try:
            assert trace_store.load("mixed", seed=1, instructions=100) is None
        finally:
            telemetry.reset()
        assert not path.exists()  # dropped, so the caller regenerates
        events = {e["event"]: e
                  for e in telemetry.load_events(tmp_path / "events")}
        assert events["trace.store_stale"]["reason"] == "version"
        assert events["trace.store_miss"]["reason"] == "version"


class TestAuxDegradation:
    def test_corrupt_aux_keeps_trace_drops_columns(self, mixed_trace,
                                                   tmp_path, monkeypatch):
        mixed_trace.aux.update(_aux_arrays())
        path = tmp_path / "t.rpt"
        write_packed(mixed_trace, path)
        data = bytearray(path.read_bytes())
        data[-10] ^= 0xFF  # inside the last aux section
        path.write_bytes(bytes(data))
        monkeypatch.setenv("REPRO_TELEMETRY", str(tmp_path / "events"))
        try:
            trace = read_packed(path)
        finally:
            telemetry.reset()
        assert np.array_equal(trace.pcs, mixed_trace.pcs)
        # sections are ordered by key; the first verified one is kept
        first_key = sorted(_aux_arrays())[0]
        assert sorted(trace.aux) == [first_key]
        events = [e for e in telemetry.load_events(tmp_path / "events")
                  if e["event"] == "trace.store_stale"]
        assert events and events[0]["reason"] == "aux-corrupt"

    def test_truncated_aux_keeps_trace(self, mixed_trace, tmp_path):
        mixed_trace.aux.update(_aux_arrays())
        path = tmp_path / "t.rpt"
        write_packed(mixed_trace, path)
        data = path.read_bytes()
        path.write_bytes(data[:-7])
        trace = read_packed(path)
        assert np.array_equal(trace.takens, mixed_trace.takens)
        assert len(trace.aux) < len(_aux_arrays())


class TestAppendAux:
    def test_upgrades_file_in_place(self, mixed_trace, tmp_path):
        """The publish leaves exactly the bytes ``pack_trace`` gives for
        the trace with the new columns."""
        path = tmp_path / "t.rpt"
        write_packed(mixed_trace, path)
        assert append_aux(path, read_packed(path), _aux_arrays())
        _assert_aux_equal(read_packed(path).aux, _aux_arrays())
        mixed_trace.aux.update(_aux_arrays())
        assert path.read_bytes() == pack_trace(mixed_trace)

    def test_merges_with_existing_columns(self, mixed_trace, tmp_path):
        """The file keeps the sections the caller passes, the loaded ones
        plus the new ones, and none of the trace's in-process memos."""
        mixed_trace.aux["cols/llbp:cafe"] = np.arange(8, dtype=np.uint16)
        path = tmp_path / "t.rpt"
        write_packed(mixed_trace, path)
        trace = read_packed(path)
        trace.aux["cols/gshare:memo"] = np.arange(4, dtype=np.uint32)
        kept = {"cols/llbp:cafe": trace.aux["cols/llbp:cafe"],
                **_aux_arrays()}
        assert append_aux(path, trace, kept)
        _assert_aux_equal(read_packed(path).aux, kept)

    def test_unwritable_path_returns_false(self, mixed_trace, tmp_path):
        """The store is a cache: a failed publish reports False, raises
        nothing and leaves no temp file behind."""
        blocker = tmp_path / "not-a-dir"
        blocker.write_bytes(b"")
        assert not append_aux(blocker / "t.rpt", mixed_trace, _aux_arrays())
        assert sorted(tmp_path.iterdir()) == [blocker]

    def test_publish_peak_memory_tracks_the_new_matrix(self, mixed_trace,
                                                       tmp_path):
        """Publishing onto a file that already holds large matrices costs
        a small multiple of the *new* matrix, not of the file: existing
        sections stream from the trace's mapping and nothing is joined."""
        rng = np.random.default_rng(0)
        mixed_trace.aux.update({
            f"cols/tsl:{i}": rng.integers(0, 1 << 16, (40_000, 24),
                                          dtype=np.uint16)
            for i in range(3)})
        path = tmp_path / "t.rpt"
        write_packed(mixed_trace, path)
        trace = read_packed(path)
        new = rng.integers(0, 1 << 16, (40_000, 4), dtype=np.uint16)
        arrays = {**trace.aux, "cols/llbp:new": new}
        tracemalloc.start()
        try:
            assert append_aux(path, trace, arrays)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert path.stat().st_size > 10 * new.nbytes
        assert peak <= 2 * new.nbytes, (peak, new.nbytes)
        _assert_aux_equal(read_packed(path).aux, arrays)


def _hammer_aux(path, tag, rounds):
    """Subprocess body: repeatedly publish a distinctly-named column."""
    wrote = 0
    for i in range(rounds):
        trace = read_packed(path)
        column = np.full(16, i, dtype=np.uint32)
        if append_aux(path, trace,
                      {**trace.aux, f"cols/{tag}:{i % 4}": column}):
            wrote += 1
    return wrote


class TestAppendAuxConcurrency:
    def test_two_processes_never_corrupt_the_file(self, mixed_trace,
                                                  tmp_path):
        """Concurrent appenders are allowed to lose each other's
        *columns* (the loser recomputes), but never to corrupt the
        container: after the storm the file must still read back with
        valid checksums and untouched base columns."""
        path = tmp_path / "t.rpt"
        write_packed(mixed_trace, path)
        with ProcessPoolExecutor(max_workers=2) as pool:
            counts = [f.result(timeout=120) for f in [
                pool.submit(_hammer_aux, str(path), "a", 25),
                pool.submit(_hammer_aux, str(path), "b", 25),
            ]]
        # Both processes made progress and every publish succeeded.
        assert counts == [25, 25]
        trace = read_packed(path)
        assert np.array_equal(trace.pcs, mixed_trace.pcs)
        assert np.array_equal(trace.takens, mixed_trace.takens)
        # At least the last writer's column survived, intact.
        assert any(key.startswith("cols/") for key in trace.aux)
        for array in trace.aux.values():
            assert array.dtype == np.uint32 and array.shape == (16,)
