"""``python -m repro.worker`` — TCP work-queue client.

The pull side of :class:`repro.parallel.backend.tcp.TCPBackend`: dial a
submitter (``python -m repro.worker HOST:PORT``, how the backend's own
loopback subprocesses run) or listen for submitters to dial in
(``python -m repro.worker --listen PORT``, for remote hosts named in
``REPRO_BACKEND_WORKERS=host:port,...``; submitters are served one at a
time and the listener survives their turnover).

Per task the worker applies the envelope's ``REPRO_*`` knob snapshot,
resolves the workload trace through its own content-addressed store —
requesting the packed bytes over the socket only on a store miss, so a
warm worker transfers nothing — runs the batched task through the same
``executor._simulate_task`` entry point a pool worker uses (registry +
selected engine included), and streams back the runner's canonical JSON
results plus their journal sha256 digests.  A task that fails reports
an ``error`` message carrying the original exception's type name;
the ``drop`` fault mode severs the socket and exits without a word,
exactly like a worker host vanishing mid-task.
"""

from __future__ import annotations

import os
import socket
import sys
from typing import Optional

from repro import telemetry
from repro.parallel.backend import apply_env
from repro.parallel.backend.tcp import (KIND_BIN, PROTOCOL_VERSION,
                                        recv_frame, recv_json, send_json)


def _ensure_trace(sock: socket.socket, workload: str,
                  instructions: int) -> int:
    """Make the task's trace resolvable locally; returns bytes fetched.

    A store miss fetches the submitter's packed bytes and publishes them
    atomically under the content address — the next task for the same
    trace is a warm hit, and ``generate_workload`` checksum-validates the
    file on load (a corrupt transfer degrades to local regeneration,
    never to wrong data).
    """
    from repro.traces import store as trace_store
    from repro.workloads import catalog

    spec = catalog.get_spec(workload)
    store = trace_store.TraceStore(catalog._cache_dir() / "traces")
    path = store.path_for(workload, spec.seed, instructions)
    if path.exists():
        return 0
    send_json(sock, {"t": "trace", "workload": workload,
                     "instructions": instructions})
    header = recv_json(sock)
    if header.get("t") != "trace-data":
        raise ConnectionError(f"expected trace-data, got {header.get('t')!r}")
    kind, data = recv_frame(sock)
    if kind != KIND_BIN or len(data) != header.get("size"):
        raise ConnectionError("trace payload does not match its header")
    path.parent.mkdir(parents=True, exist_ok=True)
    temp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    temp.write_bytes(data)
    os.replace(temp, path)
    return len(data)


def _run_task(sock: socket.socket, message: dict) -> None:
    from repro.experiments import runner
    from repro.experiments.journal import result_digest
    from repro.parallel import executor

    apply_env(message.get("env") or {})
    task = executor._Task(tuple(
        executor.SimJob(message["workload"], key, message["instructions"])
        for key in message["keys"]))
    fault = message.get("fault")
    if fault == "drop":
        # A severed connection: vanish mid-task without a goodbye, so
        # the submitter sees EOF and must reschedule on another worker.
        telemetry.emit("parallel.fault", mode="drop", in_worker=True,
                       job=repr(task.jobs[0] if len(task.jobs) == 1
                                else task))
        try:
            sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        sock.close()
        os._exit(2)
    try:
        _ensure_trace(sock, message["workload"], message["instructions"])
        results = executor._simulate_task(task, fault, in_worker=True)
        send_json(sock, {
            "t": "result", "id": message.get("id"),
            "results": [runner._to_json(result) for result in results],
            "digests": [result_digest(result) for result in results]})
    except (OSError, KeyboardInterrupt, SystemExit):
        raise
    except BaseException as error:
        send_json(sock, {"t": "error", "id": message.get("id"),
                         "kind": type(error).__name__,
                         "message": str(error)})


def _serve(sock: socket.socket) -> int:
    """Serve one submitter connection until it says close (or EOF)."""
    try:
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    except OSError:
        pass
    send_json(sock, {"t": "hello", "pid": os.getpid(),
                     "host": socket.gethostname(),
                     "version": PROTOCOL_VERSION})
    welcome = recv_json(sock)
    if (welcome.get("t") != "welcome"
            or welcome.get("version") != PROTOCOL_VERSION):
        print(f"repro.worker: incompatible submitter: {welcome!r}",
              file=sys.stderr)
        return 1
    while True:
        send_json(sock, {"t": "ready"})
        message = recv_json(sock)
        kind = message.get("t")
        if kind == "close":
            return 0
        if kind == "env":
            apply_env(message.get("env") or {})
            names = message.get("names") or []
            send_json(sock, {"t": "env-data", "id": message.get("id"),
                             "env": {name: os.environ.get(name)
                                     for name in names}})
            continue
        if kind == "task":
            _run_task(sock, message)
            continue
        raise ConnectionError(f"unexpected message {kind!r}")


def main(argv: Optional[list] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv and argv[0] == "--listen":
        if len(argv) < 2:
            print("usage: python -m repro.worker --listen PORT [HOST]",
                  file=sys.stderr)
            return 2
        host = argv[2] if len(argv) > 2 else "0.0.0.0"
        server = socket.create_server((host, int(argv[1])))
        print(f"repro.worker: listening on "
              f"{server.getsockname()[0]}:{server.getsockname()[1]}",
              flush=True)
        while True:
            conn, _addr = server.accept()
            try:
                _serve(conn)
            except (ConnectionError, OSError) as error:
                print(f"repro.worker: submitter lost: {error}",
                      file=sys.stderr)
            finally:
                conn.close()
    if len(argv) != 1 or ":" not in argv[0]:
        print("usage: python -m repro.worker HOST:PORT | --listen PORT",
              file=sys.stderr)
        return 2
    host, _, port = argv[0].rpartition(":")
    try:
        sock = socket.create_connection((host, int(port)), timeout=30.0)
    except (OSError, ValueError) as error:
        print(f"repro.worker: cannot reach {argv[0]}: {error}",
              file=sys.stderr)
        return 1
    sock.settimeout(None)
    try:
        return _serve(sock)
    except (ConnectionError, OSError) as error:
        print(f"repro.worker: submitter lost: {error}", file=sys.stderr)
        return 1
    finally:
        sock.close()


if __name__ == "__main__":
    try:
        raise SystemExit(main())
    except KeyboardInterrupt:
        raise SystemExit(130)
