"""Files from other store format versions.

Format v2 appended aux sections of derived columns to the trace; the
store reads only v1 again, so a v2 file, like one from a future build,
is structurally sound but not readable here.  ``read_packed`` refuses it
with ``TraceStoreVersionError`` and the cache turns that into a
``version`` miss that drops the file, so the caller regenerates.
"""

from __future__ import annotations

import pytest

from repro import telemetry
from repro.traces import store
from repro.traces.store import (
    TraceStoreVersionError,
    read_packed,
    write_packed,
)


class TestVersionCompatibility:
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
        events = [(e["event"], e["reason"])
                  for e in telemetry.load_events(tmp_path / "events")
                  if e["event"].startswith("trace.store_")]
        assert events == [("trace.store_miss", "version")]
