"""Execution backends: local refactor parity, TCP protocol, env knobs.

Three groups of promises:

1. **LocalBackend is a pure refactor** — run_jobs through the default
   backend is byte-identical to the historical pool path (the executor
   suite pins the pool mechanics; here we pin selection + fallback).
2. **TCPBackend computes the same bytes elsewhere** — a loopback worker
   fleet returns digest-verified results identical to serial, shares
   traces through the content-addressed store (zero bytes when warm),
   and survives worker churn.
3. **Configuration travels** — the satellite-1 audit: ``REPRO_ENGINE``,
   ``REPRO_BATCH`` and ``REPRO_RESULT_CACHE`` reach pool workers
   (environment inheritance at fork) *and* TCP workers (explicit
   task-envelope propagation), parametrized over the knob list.

TCP tests spawn real worker subprocesses, so they carry the
``distributed`` marker and a dedicated CI leg runs them; they still
run in the default suite (loopback, small budgets).
"""

from __future__ import annotations

import os
import socket
import struct
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro import parallel, telemetry
from repro.experiments import runner
from repro.experiments.journal import result_digest
from repro.parallel import backend as backend_mod
from repro.parallel import executor, faults
from repro.parallel.backend import ENV_PROPAGATED, BackendBroken
from repro.parallel.backend import tcp
from repro.parallel.backend.local import LocalBackend
from repro.parallel.backend.tcp import TCPBackend
from repro.parallel.retry import RetryPolicy

FAST = dict(max_attempts=3, base_delay=0.01, max_delay=0.05, jitter=0.5)

#: The satellite-1 audit list: every knob a worker needs to compute the
#: submitter's configuration, not its own.
KNOBS = ("REPRO_ENGINE", "REPRO_BATCH", "REPRO_RESULT_CACHE")


@pytest.fixture(autouse=True)
def backend_env(isolated_caches, monkeypatch):
    """Never inherit a backend selection from the outer environment."""
    monkeypatch.delenv("REPRO_BACKEND", raising=False)
    monkeypatch.delenv("REPRO_BACKEND_WORKERS", raising=False)
    monkeypatch.delenv("REPRO_BACKEND_GRACE", raising=False)
    faults.reset()
    yield
    faults.reset()
    parallel.shutdown()
    telemetry.reset()


def _jobs(pairs=(("Kafka", "bimodal"), ("Kafka", "gshare"))):
    return parallel.make_jobs(list(pairs))


def _digests(by_job):
    return {job: result_digest(result) for job, result in by_job.items()}


def _serial_digests(jobs, monkeypatch):
    monkeypatch.setenv("REPRO_RESULT_CACHE", "0")
    runner.clear_memory_cache()
    digests = {job: result_digest(
        runner.get_result(job.workload, job.key, job.instructions))
        for job in jobs}
    monkeypatch.delenv("REPRO_RESULT_CACHE")
    runner.clear_memory_cache()
    return digests


class TestSelection:
    def test_create_local_is_none(self):
        assert backend_mod.create("local", 2) is None
        assert backend_mod.create("", 2) is None

    def test_create_unknown_raises(self):
        with pytest.raises(ValueError, match="unknown backend"):
            backend_mod.create("carrier-pigeon", 2)

    def test_unknown_env_backend_falls_back_to_local(self, monkeypatch):
        monkeypatch.setenv("REPRO_BACKEND", "carrier-pigeon")
        with pytest.warns(RuntimeWarning, match="falling back to local"):
            by_job = parallel.run_jobs(_jobs(), max_workers=2,
                                       policy=RetryPolicy(**FAST))
        assert len(by_job) == 2

    def test_bad_worker_spec_is_backend_broken(self, monkeypatch):
        monkeypatch.setenv("REPRO_BACKEND_WORKERS", "-3")
        with pytest.raises(BackendBroken):
            TCPBackend.from_env(default_spawn=1)

    def test_local_backend_reports_its_workers(self):
        backend = LocalBackend(3)
        assert backend.workers() == 3
        assert backend.name == "local"
        assert backend.evict(object()) is False  # always a full rebuild


class TestLocalParity:
    def test_default_backend_is_byte_identical_to_serial(self, monkeypatch):
        jobs = _jobs()
        by_job = parallel.run_jobs(jobs, max_workers=2,
                                   policy=RetryPolicy(**FAST))
        assert _digests(by_job) == _serial_digests(jobs, monkeypatch)

    def test_explicit_local_name_matches_default(self, monkeypatch):
        jobs = _jobs()
        first = parallel.run_jobs(jobs, max_workers=2, backend="local",
                                  policy=RetryPolicy(**FAST))
        assert _digests(first) == _serial_digests(jobs, monkeypatch)


#: JSON-safe message bodies: the vocabulary of the work-queue protocol.
_scalars = st.one_of(
    st.none(), st.booleans(),
    st.integers(min_value=-(2 ** 53), max_value=2 ** 53),
    st.floats(allow_nan=False, allow_infinity=False, width=32),
    st.text(max_size=40))
_messages = st.dictionaries(
    st.text(min_size=1, max_size=16),
    st.recursive(_scalars, lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.dictionaries(st.text(max_size=10), children, max_size=4)),
        max_leaves=12),
    max_size=6)


def _header(kind: bytes, length: int) -> bytes:
    """The documented frame header: kind byte + big-endian u32 length."""
    return struct.pack("!cI", kind, length)


class TestFraming:
    """The work-queue wire format round-trips, and every malformed frame
    reads as a ConnectionError (a lost worker), never as a message."""

    @given(_messages)
    def test_json_round_trip(self, message):
        left, right = socket.socketpair()
        try:
            tcp.send_json(left, message)
            assert tcp.recv_json(right) == message
        finally:
            left.close()
            right.close()

    @given(st.binary(max_size=64))
    def test_binary_round_trip(self, payload):
        left, right = socket.socketpair()
        try:
            sent = tcp.send_frame(left, tcp.KIND_BIN, payload)
            assert sent == len(_header(tcp.KIND_BIN, 0)) + len(payload)
            assert tcp.recv_frame(right) == (tcp.KIND_BIN, payload)
        finally:
            left.close()
            right.close()

    @pytest.mark.parametrize("wire, reason", [
        (_header(tcp.KIND_JSON, 10) + b"{}", "closed mid-frame"),
        (_header(b"X", 2) + b"{}", "bad frame header"),
        (_header(tcp.KIND_JSON, tcp.MAX_FRAME + 1) + b"{}",
         "bad frame header"),
        (_header(tcp.KIND_JSON, 7) + b"[1,2,3]", "not an object"),
        (_header(tcp.KIND_BIN, 2) + b"{}", "expected a JSON frame"),
    ], ids=["truncated", "bad-kind", "oversized", "non-object", "binary"])
    def test_malformed_frame_is_connection_error(self, wire, reason):
        left, right = socket.socketpair()
        try:
            left.sendall(wire)
            left.close()
            with pytest.raises(ConnectionError, match=reason):
                tcp.recv_json(right)
        finally:
            right.close()


@pytest.mark.distributed
class TestTCPBackend:
    def test_loopback_fleet_is_byte_identical_to_serial(self, monkeypatch):
        jobs = _jobs((("Kafka", "bimodal"), ("Kafka", "gshare"),
                      ("Kafka", "tsl64")))
        serial = _serial_digests(jobs, monkeypatch)
        backend = TCPBackend(spawn=2)
        try:
            by_job = parallel.run_jobs(jobs, backend=backend,
                                       policy=RetryPolicy(**FAST))
        finally:
            backend.close()
        assert _digests(by_job) == serial

    def test_env_selection_spawns_loopback_workers(self, monkeypatch):
        monkeypatch.setenv("REPRO_BACKEND", "tcp")
        monkeypatch.setenv("REPRO_BACKEND_WORKERS", "2")
        jobs = _jobs()
        by_job = parallel.run_jobs(jobs, policy=RetryPolicy(**FAST))
        assert _digests(by_job) == _serial_digests(jobs, monkeypatch)

    def test_warm_worker_transfers_zero_trace_bytes(self, tmp_path,
                                                    monkeypatch):
        """Trace bytes cross the socket once per (workload, budget) —
        the second task resolves from the worker's now-warm store."""
        directory = tmp_path / "tcp-telemetry"
        monkeypatch.setenv("REPRO_TELEMETRY", str(directory))
        telemetry.reset()
        backend = TCPBackend(spawn=1)
        try:
            parallel.run_jobs(_jobs((("Kafka", "bimodal"),)) +
                              _jobs((("Kafka", "gshare"),)),
                              backend=backend, policy=RetryPolicy(**FAST))
        finally:
            backend.close()
        telemetry.reset()
        events = telemetry.load_events(directory)
        fetches = [e for e in events if e["event"] == "backend.trace_fetch"]
        # REPRO_BATCH defaults on, so both jobs ride one task; force the
        # point with the dispatch count: >=1 dispatch, exactly <=1 fetch.
        assert len(fetches) <= 1
        done = [e for e in events if e["event"] == "backend.task_done"]
        assert done and done[-1]["bytes"] == 0 or len(done) == 1

    def test_worker_join_and_leave_events(self, tmp_path, monkeypatch):
        directory = tmp_path / "tcp-telemetry"
        monkeypatch.setenv("REPRO_TELEMETRY", str(directory))
        telemetry.reset()
        backend = TCPBackend(spawn=2)
        try:
            assert backend.wait_for_workers(2, timeout=30.0)
        finally:
            backend.close()
            telemetry.reset()
        events = telemetry.load_events(directory)
        joins = [e for e in events if e["event"] == "backend.worker_join"]
        leaves = [e for e in events if e["event"] == "backend.worker_leave"]
        assert len(joins) == 2
        assert len(leaves) == 2

    def test_dial_out_to_listening_worker(self, tmp_path, monkeypatch):
        """The multi-host shape: a --listen worker with its *own* cache
        directory serves a submitter that dials it; the trace travels
        over the socket into the worker's store."""
        worker_cache = tmp_path / "worker-cache"
        env = dict(os.environ)
        env["REPRO_CACHE_DIR"] = str(worker_cache)
        src_root = Path(executor.__file__).resolve().parents[2]
        env["PYTHONPATH"] = str(src_root)
        with socket.create_server(("127.0.0.1", 0)) as probe:
            port = probe.getsockname()[1]
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro.worker", "--listen", str(port),
             "127.0.0.1"], env=env, stdin=subprocess.DEVNULL,
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT)
        try:
            deadline = time.monotonic() + 30.0
            while time.monotonic() < deadline:
                try:
                    socket.create_connection(("127.0.0.1", port),
                                             timeout=0.2).close()
                    break
                except OSError:
                    time.sleep(0.1)
            jobs = _jobs()
            serial = _serial_digests(jobs, monkeypatch)
            backend = TCPBackend(connect=[f"127.0.0.1:{port}"])
            try:
                by_job = parallel.run_jobs(jobs, backend=backend,
                                           policy=RetryPolicy(**FAST))
            finally:
                backend.close()
            assert _digests(by_job) == serial
            # The worker really used its own store: the trace landed
            # under its private cache directory, fetched over the wire.
            assert list((worker_cache / "traces").glob("*.rpt"))
        finally:
            proc.terminate()
            try:
                proc.wait(timeout=10.0)
            except subprocess.TimeoutExpired:
                proc.kill()

    def test_all_workers_dead_degrades_to_local(self, monkeypatch):
        """drop@ kills the only worker; past the grace window the batch
        must finish on the local pool with correct results."""
        monkeypatch.setenv("REPRO_BATCH", "0")
        monkeypatch.setenv("REPRO_BACKEND_GRACE", "0.5")
        faults.install("drop@0")
        jobs = _jobs()
        serial = _serial_digests(jobs, monkeypatch)
        faults.install("drop@0")  # reinstall: serial baseline used none
        backend = TCPBackend(spawn=1, grace=0.5)
        try:
            with pytest.warns(RuntimeWarning, match="degraded to local"):
                by_job = parallel.run_jobs(jobs, backend=backend,
                                           policy=RetryPolicy(**FAST))
        finally:
            backend.close()
        assert _digests(by_job) == serial


class TestEnvPropagationPool:
    """Satellite 1, pool half: knobs reach ProcessPool workers.

    Pool workers inherit the parent's environment at fork, so setting a
    knob before the first submission must be visible inside the worker.
    """

    @pytest.mark.parametrize("knob", KNOBS)
    def test_knob_reaches_pool_worker(self, knob, monkeypatch):
        monkeypatch.setenv(knob, "probe-value")
        parallel.shutdown()  # a fresh pool, forked under this env
        with executor._lock:
            pool = executor._get_pool(1)
        try:
            seen = pool.submit(backend_mod._probe_env, [knob]).result(
                timeout=60)
        finally:
            parallel.shutdown()
        assert seen == {knob: "probe-value"}


@pytest.mark.distributed
class TestEnvPropagationTCP:
    """Satellite 1, TCP half: knobs travel in the task envelope.

    The probe carries the submitter's values exactly as a task envelope
    does and the worker reports back what it sees after applying them —
    so this passes only if envelope propagation works, regardless of
    what environment the worker process started with.
    """

    @pytest.mark.parametrize("knob", KNOBS)
    def test_knob_reaches_tcp_worker(self, knob, monkeypatch):
        backend = TCPBackend(spawn=1)
        try:
            monkeypatch.setenv(knob, "envelope-value")
            seen = backend.probe_env([knob])
            assert seen == {knob: "envelope-value"}
            # And unsetting propagates too (None -> pop on the worker).
            monkeypatch.delenv(knob)
            seen = backend.probe_env([knob])
            assert seen == {knob: None}
        finally:
            backend.close()

    def test_envelope_lists_exactly_the_audited_knobs(self):
        """The audit list is the propagated list (plus the chaos hang
        knob, which rides along for deterministic remote faults)."""
        assert set(KNOBS) <= set(ENV_PROPAGATED)
        captured = backend_mod.capture_env()
        assert set(captured) == set(ENV_PROPAGATED)
