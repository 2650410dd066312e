"""Packed-binary trace store: round-trip, corruption, mmap, caching.

The store is a *cache* of deterministic generator output, so its
correctness bar is: a hit must be indistinguishable from regenerating
(bit-identical columns), and anything less than a perfect file — short,
truncated, bit-flipped, wrong magic or version — must read as a miss
that triggers regeneration, never as data.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import telemetry
from repro.traces.io import load_trace, save_trace
from repro.traces.store import (
    TraceStore,
    TraceStoreError,
    pack_trace,
    read_packed,
    write_packed,
)
from repro.traces.trace import Trace
from repro.workloads.catalog import generate_workload

COLUMNS = ("pcs", "types", "takens", "targets", "gaps")


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
    def test_mmap_and_copy_reads_identical(self, tiny_workload_trace,
                                           tmp_path):
        path = tmp_path / "t.rpt"
        write_packed(tiny_workload_trace, path)
        mapped = read_packed(path, use_mmap=True)
        copied = read_packed(path, use_mmap=False)
        _assert_traces_equal(mapped, copied)
        assert list(mapped.iter_tuples()) == list(copied.iter_tuples())

    def test_mmap_views_are_readonly(self, mixed_trace, tmp_path):
        """Zero-copy views over a shared mapping must not be writable:
        a worker scribbling on them would corrupt every sibling."""
        path = tmp_path / "t.rpt"
        write_packed(mixed_trace, path)
        mapped = read_packed(path, use_mmap=True)
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
