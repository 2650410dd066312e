"""TCP work-queue backend: shard batched tasks across worker processes.

One :class:`TCPBackend` instance is the submitting side of a pull-model
work queue.  It owns a listening socket plus one handler thread per
connected worker (``python -m repro.worker``); workers may be loopback
subprocesses the backend spawns itself (CI, 1-core boxes) or remote
``--listen`` processes the backend dials out to via ``host:port`` specs
(``REPRO_BACKEND_WORKERS`` / ``--workers``).

Wire format (documented for external workers in
``docs/ARCHITECTURE.md``): every frame is a 5-byte header — one kind
byte, ``J`` (UTF-8 JSON) or ``B`` (raw bytes), then a big-endian u32
payload length — followed by the payload.  msgpack would halve header
overhead but is not in the baseline environment, and trace payloads
(the only large frames) are raw binary either way.  Message flow::

    worker  -> {"t": "hello", "pid", "host", "version"}
    backend -> {"t": "welcome", "version"}
    worker  -> {"t": "ready"}                      # pull: worker is idle
    backend -> {"t": "task", "id", "workload", "keys", "instructions",
                "fault", "env"}                    # or "env" probe/"close"
    worker  -> {"t": "trace", "workload", "instructions"}   # store miss
    backend -> {"t": "trace-data", "size"} + one binary frame
    worker  -> {"t": "result", "id", "results", "digests"}  # or "error"

``env`` in the task envelope snapshots the submitter's ``REPRO_*``
knobs (:data:`repro.parallel.backend.ENV_PROPAGATED`) so the worker
computes with the submitter's configuration.  Traces move over the
socket only when the worker's content-addressed store misses — the
store path is derived from (name, seed, instructions, generation), so
a warm worker transfers zero trace bytes.  Results come back as the
runner's canonical JSON encoding plus the same sha256 digests the
checkpoint journal records; the backend re-derives each digest after
decoding and treats a mismatch as a lost worker (never as data).

Failure mapping: a severed connection settles the in-flight future
with :class:`~repro.parallel.backend.WorkerLost`, which the retry layer
treats like a ``BrokenProcessPool`` collateral loss — rescheduled
without burning attempts.  A deadline expiry is *surgical*
(:meth:`TCPBackend.evict` cuts just that worker's connection); the
executor degrades to the local pool only when every worker is gone
past the ``REPRO_BACKEND_GRACE`` rejoin window.
"""

from __future__ import annotations

import itertools
import json
import os
import queue
import socket
import struct
import subprocess
import sys
import threading
import time
import warnings
from concurrent.futures import Future, InvalidStateError
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from repro import telemetry
from repro.parallel.backend import (Backend, BackendBroken, ENV_WORKERS,
                                    RemoteTaskError, WorkerLost, capture_env,
                                    grace_seconds)

PROTOCOL_VERSION = 1

#: Frame header: kind byte (``J`` JSON / ``B`` binary) + payload length.
_FRAME = struct.Struct("!cI")
KIND_JSON = b"J"
KIND_BIN = b"B"

#: Upper bound on a single frame; a length above this means a corrupt
#: or hostile stream, not a real payload.
MAX_FRAME = 1 << 30


def send_frame(sock: socket.socket, kind: bytes, payload: bytes) -> int:
    """Write one frame; returns bytes put on the wire."""
    sock.sendall(_FRAME.pack(kind, len(payload)) + payload)
    return _FRAME.size + len(payload)


def send_json(sock: socket.socket, message: dict) -> int:
    return send_frame(sock, KIND_JSON,
                      json.dumps(message, separators=(",", ":")).encode())


def recv_exact(sock: socket.socket, size: int) -> bytes:
    chunks = []
    while size:
        chunk = sock.recv(min(size, 1 << 20))
        if not chunk:
            raise ConnectionError("connection closed mid-frame")
        chunks.append(chunk)
        size -= len(chunk)
    return b"".join(chunks)


def recv_frame(sock: socket.socket) -> Tuple[bytes, bytes]:
    kind, length = _FRAME.unpack(recv_exact(sock, _FRAME.size))
    if kind not in (KIND_JSON, KIND_BIN) or length > MAX_FRAME:
        raise ConnectionError(f"bad frame header ({kind!r}, {length})")
    return kind, recv_exact(sock, length)


def recv_json(sock: socket.socket) -> dict:
    kind, payload = recv_frame(sock)
    if kind != KIND_JSON:
        raise ConnectionError("expected a JSON frame")
    try:
        message = json.loads(payload.decode())
    except (UnicodeDecodeError, ValueError) as error:
        raise ConnectionError(f"undecodable JSON frame: {error}") from None
    if not isinstance(message, dict):
        raise ConnectionError("JSON frame is not an object")
    return message


class _Item:
    """One queued unit of work: a task attempt or an env probe."""

    __slots__ = ("kind", "ident", "task", "fault", "env", "names", "future")

    def __init__(self, kind: str, ident: int, future: Future, task=None,
                 fault: Optional[str] = None, env: Optional[dict] = None,
                 names: Sequence[str] = ()) -> None:
        self.kind = kind
        self.ident = ident
        self.future = future
        self.task = task
        self.fault = fault
        self.env = env or {}
        self.names = list(names)


_SHUTDOWN = object()


def _settle_result(future: Future, value) -> None:
    try:
        future.set_result(value)
    except InvalidStateError:
        pass  # already evicted/cancelled by the executor


def _settle_error(future: Future, error: BaseException) -> None:
    try:
        future.set_exception(error)
    except InvalidStateError:
        pass


class TCPBackend(Backend):
    """Submitting side of the TCP work queue (see module docstring)."""

    name = "tcp"

    def __init__(self, spawn: Optional[int] = None,
                 connect: Sequence[str] = (), host: str = "127.0.0.1",
                 port: int = 0, grace: Optional[float] = None,
                 join_timeout: float = 30.0) -> None:
        self.grace = grace_seconds() if grace is None else grace
        self._queue: "queue.Queue" = queue.Queue()
        self._mutex = threading.Lock()
        self._workers_cond = threading.Condition(self._mutex)
        self._conns: Dict[int, socket.socket] = {}
        self._active: Dict[Future, int] = {}
        self._threads: List[threading.Thread] = []
        self._procs: List[subprocess.Popen] = []
        self._closed = False
        self._wid_seq = itertools.count(1)
        self._item_seq = itertools.count(1)

        self._server = socket.create_server((host, port))
        self.port = self._server.getsockname()[1]
        self.host = host
        accept = threading.Thread(target=self._accept_loop,
                                  name="tcp-backend-accept", daemon=True)
        accept.start()
        self._threads.append(accept)

        if connect:
            for spec in connect:
                self._dial(spec)
        else:
            for _ in range(max(1, int(spawn or 1))):
                self._spawn_worker()
        if not self.wait_for_workers(1, timeout=join_timeout):
            self.close(kill=True)
            raise BackendBroken(
                f"no TCP worker joined within {join_timeout}s "
                f"(spawn={spawn!r}, connect={list(connect)!r})")

    @classmethod
    def from_env(cls, default_spawn: int = 1) -> "TCPBackend":
        """Build from ``REPRO_BACKEND_WORKERS``: a loopback worker count
        or a comma-separated ``host:port`` list of listening workers."""
        raw = os.environ.get(ENV_WORKERS, "").strip()
        if not raw:
            return cls(spawn=max(1, default_spawn))
        if ":" in raw:
            specs = [spec.strip() for spec in raw.split(",") if spec.strip()]
            return cls(connect=specs)
        try:
            count = int(raw)
            if count <= 0:
                raise ValueError(raw)
        except ValueError:
            raise BackendBroken(
                f"{ENV_WORKERS}={raw!r} is neither a worker count nor a "
                "host:port list") from None
        return cls(spawn=count)

    # ------------------------------------------------------------------
    # Backend interface
    # ------------------------------------------------------------------

    def submit(self, task, fault: Optional[str]) -> Future:
        if self._closed:
            raise BackendBroken("TCP backend is closed")
        future: Future = Future()
        self._queue.put(_Item("task", next(self._item_seq), future,
                              task=task, fault=fault, env=capture_env()))
        return future

    def workers(self) -> int:
        with self._mutex:
            return len(self._conns)

    def wait_for_workers(self, count: int = 1,
                         timeout: Optional[float] = None) -> bool:
        with self._workers_cond:
            return self._workers_cond.wait_for(
                lambda: self._closed or len(self._conns) >= count,
                timeout=timeout) and not self._closed

    def evict(self, future: Future) -> bool:
        """Sever just the connection running ``future`` (deadline expiry).

        Queued futures are simply cancelled.  Returns ``True`` when the
        eviction was surgical — the executor then skips the pool-rebuild
        recovery it needs for local hung workers.
        """
        with self._mutex:
            wid = self._active.get(future)
            conn = self._conns.get(wid) if wid is not None else None
        if conn is not None:
            _shutdown_socket(conn)
            return True
        return future.cancel() or future.done()

    def close(self, kill: bool = False) -> None:
        with self._workers_cond:
            self._closed = True
            self._workers_cond.notify_all()
            conns = list(self._conns.values())
        self._queue.put(_SHUTDOWN)
        try:
            self._server.close()
        except OSError:
            pass
        deadline = time.monotonic() + (0.5 if kill else 5.0)
        for thread in self._threads:
            thread.join(timeout=max(0.0, deadline - time.monotonic()))
        for conn in conns:
            _shutdown_socket(conn)
        for proc in self._procs:
            if proc.poll() is None:
                proc.terminate()
        for proc in self._procs:
            try:
                proc.wait(timeout=0.2 if kill else 5.0)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait(timeout=5.0)

    # ------------------------------------------------------------------
    # Test/diagnostic helpers
    # ------------------------------------------------------------------

    def probe_env(self, names: Sequence[str],
                  timeout: float = 30.0) -> Dict[str, Optional[str]]:
        """Ship the submitter's values for ``names`` to a worker exactly
        as a task envelope would, and return what the worker reports
        back after applying them — proves end-to-end knob propagation
        without running a simulation."""
        future: Future = Future()
        env = {name: os.environ.get(name) for name in names}
        self._queue.put(_Item("env", next(self._item_seq), future,
                              env=env, names=names))
        return future.result(timeout=timeout)

    # ------------------------------------------------------------------
    # Connection plumbing
    # ------------------------------------------------------------------

    def _accept_loop(self) -> None:
        while not self._closed:
            try:
                conn, _addr = self._server.accept()
            except OSError:
                return  # server socket closed
            self._attach(conn)

    def _attach(self, conn: socket.socket) -> None:
        try:
            conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        except OSError:
            pass
        thread = threading.Thread(target=self._serve_conn, args=(conn,),
                                  name="tcp-backend-worker", daemon=True)
        thread.start()
        self._threads.append(thread)

    def _dial(self, spec: str) -> None:
        host, _, port = spec.rpartition(":")
        try:
            conn = socket.create_connection((host, int(port)), timeout=10.0)
            conn.settimeout(None)
        except (OSError, ValueError) as error:
            warnings.warn(f"cannot reach TCP worker {spec!r}: {error}",
                          RuntimeWarning, stacklevel=3)
            return
        self._attach(conn)

    def _spawn_worker(self) -> None:
        import repro

        src_root = str(Path(repro.__file__).resolve().parents[1])
        env = dict(os.environ)
        previous = env.get("PYTHONPATH", "")
        env["PYTHONPATH"] = (f"{src_root}{os.pathsep}{previous}"
                             if previous else src_root)
        self._procs.append(subprocess.Popen(
            [sys.executable, "-m", "repro.worker",
             f"{self.host}:{self.port}"],
            env=env, stdin=subprocess.DEVNULL))

    def _next_item(self):
        while True:
            item = self._queue.get()
            if item is _SHUTDOWN:
                return item
            if not item.future.set_running_or_notify_cancel():
                continue  # cancelled while queued
            return item

    def _serve_conn(self, sock: socket.socket) -> None:
        wid: Optional[int] = None
        item: Optional[_Item] = None
        served = 0
        try:
            hello = recv_json(sock)
            if (hello.get("t") != "hello"
                    or hello.get("version") != PROTOCOL_VERSION):
                warnings.warn(
                    f"rejecting TCP worker with bad hello {hello!r}",
                    RuntimeWarning, stacklevel=2)
                return
            send_json(sock, {"t": "welcome", "version": PROTOCOL_VERSION})
            with self._workers_cond:
                if self._closed:
                    return
                wid = next(self._wid_seq)
                self._conns[wid] = sock
                self._workers_cond.notify_all()
            telemetry.emit("backend.worker_join", worker=wid,
                           pid=hello.get("pid"), host=hello.get("host"))
            while True:
                message = recv_json(sock)
                if message.get("t") != "ready":
                    raise ConnectionError(
                        f"expected ready, got {message.get('t')!r}")
                item = self._next_item()
                if item is _SHUTDOWN:
                    self._queue.put(_SHUTDOWN)  # wake sibling handlers
                    item = None
                    try:
                        send_json(sock, {"t": "close"})
                    except OSError:
                        pass
                    return
                if item.kind == "env":
                    send_json(sock, {"t": "env", "id": item.ident,
                                     "names": item.names, "env": item.env})
                    reply = recv_json(sock)
                    if reply.get("t") != "env-data":
                        raise ConnectionError(
                            f"expected env-data, got {reply.get('t')!r}")
                    _settle_result(item.future, reply.get("env") or {})
                    item = None
                    continue
                self._run_remote(sock, wid, item)
                served += 1
                item = None
        except OSError as error:
            if item is not None and item is not _SHUTDOWN:
                _settle_error(item.future, WorkerLost(
                    f"TCP worker {wid or '?'} lost mid-task: {error}"))
        finally:
            if item is not None and item is not _SHUTDOWN:
                with self._mutex:
                    self._active.pop(item.future, None)
            if wid is not None:
                with self._workers_cond:
                    self._conns.pop(wid, None)
                    self._workers_cond.notify_all()
                telemetry.emit("backend.worker_leave", worker=wid,
                               tasks=served)
            _shutdown_socket(sock)
            sock.close()

    def _run_remote(self, sock: socket.socket, wid: int, item: _Item) -> None:
        """Drive one task attempt on one worker connection."""
        task = item.task
        envelope = {"t": "task", "id": item.ident, "workload": task.workload,
                    "keys": [job.key for job in task.jobs],
                    "instructions": task.instructions, "fault": item.fault,
                    "env": item.env}
        with self._mutex:
            self._active[item.future] = wid
        try:
            sent = send_json(sock, envelope)
            telemetry.emit("backend.dispatch", worker=wid,
                           workload=task.workload, keys=task.keys,
                           instructions=task.instructions, bytes=sent)
            start = time.perf_counter()
            transferred = 0
            while True:
                reply = recv_json(sock)
                kind = reply.get("t")
                if kind == "trace":
                    data = self._trace_bytes(reply["workload"],
                                             reply["instructions"])
                    send_json(sock, {"t": "trace-data", "size": len(data)})
                    transferred += send_frame(sock, KIND_BIN, data)
                    telemetry.emit("backend.trace_fetch", worker=wid,
                                   workload=reply["workload"],
                                   instructions=reply["instructions"],
                                   bytes=len(data))
                    continue
                if kind == "result":
                    results = self._decode_results(wid, task, reply)
                    _settle_result(item.future, results)
                    telemetry.emit(
                        "backend.task_done", worker=wid,
                        workload=task.workload, keys=task.keys,
                        seconds=time.perf_counter() - start,
                        bytes=transferred)
                    return
                if kind == "error":
                    _settle_error(item.future, RemoteTaskError(
                        reply.get("kind") or "RemoteTaskError",
                        reply.get("message") or "remote task failed"))
                    return
                raise ConnectionError(f"unexpected reply {kind!r}")
        finally:
            with self._mutex:
                self._active.pop(item.future, None)

    def _decode_results(self, wid: int, task, reply: dict):
        """Decode a result message, re-verifying every digest.

        An undecodable payload or digest mismatch is a transport-level
        failure (the worker is lying or the stream corrupt), not a task
        result: the future fails as a lost worker and the connection is
        torn down so nothing else trusts it.
        """
        from repro.experiments import runner
        from repro.experiments.journal import result_digest

        raw = reply.get("results")
        digests = reply.get("digests")
        try:
            if (not isinstance(raw, list) or not isinstance(digests, list)
                    or len(raw) != len(task.jobs)
                    or len(digests) != len(task.jobs)):
                raise ValueError(f"malformed result for {task.keys}")
            results = [runner._from_json(entry) for entry in raw]
            for result, digest in zip(results, digests):
                if result_digest(result) != digest:
                    raise ValueError(
                        f"digest mismatch for {result.workload}/"
                        f"{result.predictor}")
        except (KeyError, TypeError, ValueError, AttributeError) as error:
            telemetry.emit("backend.digest_mismatch", worker=wid,
                           workload=task.workload, keys=task.keys,
                           error=str(error))
            raise ConnectionError(str(error)) from None
        return results

    @staticmethod
    def _trace_bytes(workload: str, instructions: int) -> bytes:
        """Packed trace bytes for a worker's store miss.

        Prefer the submitter's own packed store file (zero re-encoding);
        fall back to packing the in-memory trace when that file cannot
        be read.
        """
        from repro.traces import store as trace_store
        from repro.workloads import catalog

        trace = catalog.generate_workload(workload, instructions)
        path = getattr(trace, "store_path", None)
        if path:
            try:
                return Path(path).read_bytes()
            except OSError:
                pass
        return trace_store.pack_trace(trace)


def _shutdown_socket(sock: socket.socket) -> None:
    try:
        sock.shutdown(socket.SHUT_RDWR)
    except OSError:
        pass
