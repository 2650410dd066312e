"""Packed-binary trace store: round-trip, corruption, mmap, caching.

The store is a *cache* of deterministic generator output, so its
correctness bar is: a hit must be indistinguishable from regenerating
(bit-identical columns), and anything less than a perfect file — short,
truncated, bit-flipped, wrong magic or version — must read as a miss
that triggers regeneration, never as data.
"""

from __future__ import annotations

import hashlib
import tracemalloc
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest

from repro import telemetry
from repro.traces.io import load_trace, save_trace
from repro.traces.store import (
    TraceStore,
    TraceStoreError,
    TraceStoreVersionError,
    pack_trace,
    read_packed,
    write_packed,
)
from repro.traces.trace import Trace
from repro.workloads.catalog import generate_workload

COLUMNS = ("pcs", "types", "takens", "targets", "gaps")


def _relabel(path, version: int) -> None:
    """Rewrite the packed file at ``path`` as format ``version``, digest
    recomputed, so the version field is the only thing wrong with it.

    For v2 this is byte for byte what the v2 writer produced for a trace
    without derived columns.
    """
    body = bytearray(path.read_bytes()[:-32])
    body[4:6] = version.to_bytes(2, "little")
    path.write_bytes(bytes(body) + hashlib.sha256(body).digest())


def _assert_traces_equal(a: Trace, b: Trace) -> None:
    assert a.name == b.name
    assert len(a) == len(b)
    for column in COLUMNS:
        left, right = getattr(a, column), getattr(b, column)
        assert left.dtype == right.dtype
        assert np.array_equal(left, right)


class TestRoundTrip:
    def test_packed_matches_original(self, mixed_trace, tmp_path):
        path = tmp_path / "mixed.rpt"
        write_packed(mixed_trace, path)
        _assert_traces_equal(read_packed(path), mixed_trace)

    def test_agrees_with_npz_reference(self, tiny_workload_trace, tmp_path):
        """The packed format and the legacy ``.npz`` interchange format
        must describe the same trace byte for byte, column for column."""
        save_trace(tiny_workload_trace, tmp_path / "ref.npz")
        write_packed(tiny_workload_trace, tmp_path / "t.rpt")
        _assert_traces_equal(read_packed(tmp_path / "t.rpt"),
                             load_trace(tmp_path / "ref.npz"))

    def test_empty_trace(self, tmp_path):
        empty = Trace(np.array([], dtype=np.uint64),
                      np.array([], dtype=np.uint8),
                      np.array([], dtype=np.uint8),
                      np.array([], dtype=np.uint64),
                      np.array([], dtype=np.uint16), name="empty")
        path = tmp_path / "empty.rpt"
        write_packed(empty, path)
        _assert_traces_equal(read_packed(path), empty)

    def test_pack_is_deterministic(self, mixed_trace):
        assert pack_trace(mixed_trace) == pack_trace(mixed_trace)

    def test_long_name_rejected(self, mixed_trace):
        mixed_trace.name = "x" * 70_000
        with pytest.raises(ValueError, match="name too long"):
            pack_trace(mixed_trace)


class TestCorruptionDetection:
    def test_truncated_file_rejected(self, mixed_trace, tmp_path):
        path = tmp_path / "t.rpt"
        write_packed(mixed_trace, path)
        data = path.read_bytes()
        path.write_bytes(data[: len(data) // 2])
        with pytest.raises(TraceStoreError, match="truncated"):
            read_packed(path)

    def test_flipped_payload_byte_rejected(self, mixed_trace, tmp_path):
        path = tmp_path / "t.rpt"
        write_packed(mixed_trace, path)
        data = bytearray(path.read_bytes())
        data[len(data) // 2] ^= 0xFF
        path.write_bytes(bytes(data))
        with pytest.raises(TraceStoreError, match="digest mismatch"):
            read_packed(path)

    def test_bad_magic_rejected(self, mixed_trace, tmp_path):
        path = tmp_path / "t.rpt"
        write_packed(mixed_trace, path)
        data = bytearray(path.read_bytes())
        data[:4] = b"NOPE"
        path.write_bytes(bytes(data))
        with pytest.raises(TraceStoreError, match="bad magic"):
            read_packed(path)

    def test_future_version_rejected(self, mixed_trace, tmp_path):
        path = tmp_path / "t.rpt"
        write_packed(mixed_trace, path)
        data = bytearray(path.read_bytes())
        data[4:6] = (99).to_bytes(2, "little")
        path.write_bytes(bytes(data))
        with pytest.raises(TraceStoreError, match="version"):
            read_packed(path)

    def test_trailing_bytes_rejected(self, mixed_trace, tmp_path):
        """A file is exactly header, columns and digest: anything after
        the digest is corruption."""
        path = tmp_path / "t.rpt"
        write_packed(mixed_trace, path)
        path.write_bytes(path.read_bytes() + b"\x00" * 64)
        with pytest.raises(TraceStoreError, match="truncated"):
            read_packed(path)

    def test_tiny_file_rejected(self, tmp_path):
        path = tmp_path / "t.rpt"
        path.write_bytes(b"RPTB")
        with pytest.raises(TraceStoreError, match="truncated"):
            read_packed(path)

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(TraceStoreError, match="unreadable"):
            read_packed(tmp_path / "nope.rpt")

    def test_store_treats_corruption_as_miss(self, mixed_trace, tmp_path):
        """A corrupt cache entry is dropped and reported as a miss so
        the caller regenerates over it — never trusted, never fatal."""
        trace_store = TraceStore(tmp_path)
        path = trace_store.store(mixed_trace, "mixed", seed=1,
                                 instructions=100)
        data = bytearray(path.read_bytes())
        data[-1] ^= 0xFF
        path.write_bytes(bytes(data))
        assert trace_store.load("mixed", seed=1, instructions=100) is None
        assert not path.exists()  # poisoned bytes may not answer again


class TestMemoryMapping:
    def test_mmap_views_are_readonly(self, mixed_trace, tmp_path):
        """Zero-copy views over a shared mapping must not be writable:
        a worker scribbling on them would corrupt every sibling."""
        path = tmp_path / "t.rpt"
        write_packed(mixed_trace, path)
        mapped = read_packed(path)
        for column in COLUMNS:
            assert not getattr(mapped, column).flags.writeable


class TestTraceStoreCache:
    def test_content_address_covers_request(self):
        base = TraceStore.key("Kafka", seed=1, instructions=1000)
        assert TraceStore.key("Kafka", seed=2, instructions=1000) != base
        assert TraceStore.key("Kafka", seed=1, instructions=2000) != base
        assert TraceStore.key("TPCC", seed=1, instructions=1000) != base
        assert TraceStore.key("Kafka", seed=1, instructions=1000) == base

    def test_generate_workload_hits_store(self, isolated_caches):
        first = generate_workload("Kafka", 60_000)
        second = generate_workload("Kafka", 60_000)
        _assert_traces_equal(first, second)
        # The second call answered from the packed store: the columns
        # are mmap-backed views, not freshly generated arrays.
        assert not second.pcs.flags.writeable

    def test_corrupt_store_entry_regenerates(self, isolated_caches):
        clean = generate_workload("Kafka", 60_000)
        (path,) = (isolated_caches / "cache" / "traces").glob("*.rpt")
        data = bytearray(path.read_bytes())
        data[len(data) // 3] ^= 0xFF
        path.write_bytes(bytes(data))
        regenerated = generate_workload("Kafka", 60_000)
        _assert_traces_equal(regenerated, clean)

    @pytest.mark.parametrize("version", (2, 99), ids=("v2", "future"))
    def test_foreign_version_regenerates_in_place(self, isolated_caches,
                                                  tmp_path, monkeypatch,
                                                  version):
        """A file in another format version (v2, which appended derived
        columns to the trace, or a future one) is one ``version`` miss:
        read_packed refuses it, and the next load regenerates the trace
        over it."""
        clean = generate_workload("Kafka", 60_000)
        path = clean.store_path
        _relabel(path, version)
        with pytest.raises(TraceStoreVersionError):
            read_packed(path)
        monkeypatch.setenv("REPRO_TELEMETRY", str(tmp_path / "events"))
        try:
            regenerated = generate_workload("Kafka", 60_000)
        finally:
            telemetry.reset()
        _assert_traces_equal(regenerated, clean)
        assert path.read_bytes() == pack_trace(clean)
        events = [(e["event"], e["reason"])
                  for e in telemetry.load_events(tmp_path / "events")
                  if e["event"].startswith("trace.store_")]
        assert events == [("trace.store_miss", "version")]

    def test_hit_and_miss_telemetry(self, isolated_caches, tmp_path,
                                    monkeypatch):
        monkeypatch.setenv("REPRO_TELEMETRY", str(tmp_path / "events"))
        try:
            generate_workload("Kafka", 60_000)
            generate_workload("Kafka", 60_000)
        finally:
            telemetry.reset()
        events = [e["event"]
                  for e in telemetry.load_events(tmp_path / "events")
                  if e["event"].startswith("trace.store_")]
        assert events == ["trace.store_miss", "trace.store_hit"]


def _hammer_store(path, rounds):
    """Subprocess body: republish the trace at ``path`` over and over,
    reading the file back after every publish."""
    trace = read_packed(path)
    wrote = 0
    for _ in range(rounds):
        wrote += write_packed(trace, path)
        read_packed(path)  # raises on a torn or half-written file
    return wrote


class TestPublish:
    def test_failed_publish_is_silent(self, mixed_trace, tmp_path):
        """The store is a cache: a failed publish raises nothing, leaves
        no temp file behind, and leaves the trace without a store path —
        whether the directory cannot be made or the rename fails after
        the temp file was written."""
        blocker = tmp_path / "not-a-dir"
        blocker.write_bytes(b"")
        assert not write_packed(mixed_trace, blocker / "t.rpt")
        trace_store = TraceStore(tmp_path / "root")
        path = trace_store.path_for("mixed", seed=1, instructions=100)
        path.mkdir(parents=True)  # the rename target is a directory
        assert not write_packed(mixed_trace, path)
        trace_store.store(mixed_trace, "mixed", seed=1, instructions=100)
        assert mixed_trace.store_path is None
        assert sorted(tmp_path.iterdir()) == [blocker, tmp_path / "root"]
        assert list(path.parent.iterdir()) == [path]

    def test_two_processes_never_tear_the_file(self, mixed_trace,
                                               tmp_path):
        """Concurrent publishers of one trace stage under distinct temp
        names and rename into place, so every read in either process
        sees a whole, checksum-valid file."""
        path = tmp_path / "t.rpt"
        write_packed(mixed_trace, path)
        with ProcessPoolExecutor(max_workers=2) as pool:
            counts = [f.result(timeout=120) for f in [
                pool.submit(_hammer_store, str(path), 25),
                pool.submit(_hammer_store, str(path), 25),
            ]]
        assert counts == [25, 25]
        assert path.read_bytes() == pack_trace(mixed_trace)
        assert sorted(tmp_path.iterdir()) == [path]

    def test_write_streams_without_joining(self, tmp_path):
        """Publishing streams the columns straight from the trace: peak
        traced memory is a small fraction of the file, not a copy of
        it."""
        rng = np.random.default_rng(0)
        n = 200_000
        trace = Trace(rng.integers(0, 1 << 40, n, dtype=np.uint64),
                      rng.integers(0, 8, n, dtype=np.uint8),
                      rng.integers(0, 2, n, dtype=np.uint8),
                      rng.integers(0, 1 << 40, n, dtype=np.uint64),
                      rng.integers(1, 9, n, dtype=np.uint16), name="big")
        path = tmp_path / "t.rpt"
        tracemalloc.start()
        try:
            assert write_packed(trace, path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= path.stat().st_size // 20, (peak, path.stat().st_size)
        _assert_traces_equal(read_packed(path), trace)
