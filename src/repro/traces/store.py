"""Packed-binary trace store: one decode-ready file per generated trace.

Generation is deterministic but not free, so every generated trace is
kept on disk, in the shape the simulation path reads: a flat
packed-binary file — a fixed header, the five column arrays laid out raw
(struct-of-arrays, no compression, no pickle anywhere), and a trailing
SHA-256 digest:

    magic "RPTB" | version u16 | name_len u16 | n_records u64
    | name utf-8 | pad to 16 | pcs u64[n] | targets u64[n]
    | gaps u16[n] | types u8[n] | takens u8[n] | sha256[32]

A file holds branch records only: derived data such as the array
engine's hash columns (:mod:`repro.sim.columns`) is recomputed per
process, never written back.  A file in any other format version
(including v2, whose files carried those columns as appended sections)
fails loudly in :func:`read_packed` and is a regenerating cache miss in
:class:`TraceStore.load`.

Properties the simulator relies on:

* **memory-mapped loading** — :func:`read_packed` maps the file
  read-only and wraps the columns as zero-copy numpy views, so every
  worker process simulating the same workload shares one set of
  physical pages through the page cache instead of holding a private
  decompressed copy;
* **content-addressed cache** — :class:`TraceStore` names files by a
  digest of the full generation request (workload, seed, instruction
  budget, generator version), so a stale or renamed spec can never
  answer for a different trace;
* **atomic publish** — writers stage under a pid-suffixed temp name and
  ``os.replace`` into place, so concurrent workers generating the same
  workload never expose a torn file;
* **corruption detection** — magic, version, length and the trailing
  digest are all verified on open; any mismatch raises
  :class:`TraceStoreError`, which the cache turns into a miss (the file
  is dropped and the trace regenerated).

Telemetry: every cache probe emits ``trace.store_hit`` or
``trace.store_miss`` (the miss event distinguishes absent files from
corrupt ones and foreign versions), alongside the pre-existing
``trace.cache`` accounting.
"""

from __future__ import annotations

import hashlib
import io
import mmap
import os
import struct
from pathlib import Path
from typing import Optional, Union

import numpy as np

from repro import telemetry
from repro.traces.trace import Trace

_MAGIC = b"RPTB"
_FORMAT_VERSION = 1
_HEADER = struct.Struct("<4sHHQ")  # magic, version, name_len, n_records
_ALIGN = 16
_DIGEST_BYTES = 32

#: Version of the workload *generator* whose output the store caches.
#: Bump whenever generated traces change.
TRACE_GENERATION = 4

#: (dtype, per-record bytes) for each column, in on-disk order.  64-bit
#: columns come first so every offset stays naturally aligned for numpy.
_COLUMNS = (
    ("pcs", np.uint64),
    ("targets", np.uint64),
    ("gaps", np.uint16),
    ("types", np.uint8),
    ("takens", np.uint8),
)


class TraceStoreError(ValueError):
    """A packed trace file is missing, truncated, or corrupt."""


def _padding(offset: int) -> int:
    return (-offset) % _ALIGN


def _raw(array: np.ndarray, dtype=None) -> np.ndarray:
    """``array``'s bytes as a flat uint8 view (a copy only if ``array`` is
    not already C-contiguous ``dtype``)."""
    return np.ascontiguousarray(array, dtype=dtype).reshape(-1).view(np.uint8)


def _write(out, trace: Trace) -> None:
    """Stream ``trace``'s packed bytes to ``out``, then their sha256.

    Array parts are views of the trace's columns, so nothing is copied,
    and every format error is raised before a byte is written.
    """
    name = trace.name.encode("utf-8")
    if len(name) > 0xFFFF:
        raise ValueError("trace name too long to pack")
    head = _HEADER.pack(_MAGIC, _FORMAT_VERSION, len(name), len(trace)) + name
    parts = [head, b"\x00" * _padding(len(head))]
    parts.extend(_raw(getattr(trace, column), dtype)
                 for column, dtype in _COLUMNS)
    digest = hashlib.sha256()
    for part in parts:
        digest.update(part)
        out.write(part)
    out.write(digest.digest())


def pack_trace(trace: Trace) -> bytes:
    """Serialise ``trace`` to the packed binary format (digest included)."""
    buffer = io.BytesIO()
    _write(buffer, trace)
    return buffer.getvalue()


def write_packed(trace: Trace, path: Union[str, Path]) -> bool:
    """Write ``trace`` to ``path`` atomically (pid-temp + rename).

    The file is streamed to a pid-suffixed temp name and renamed into
    place, so a concurrent reader or writer of the same path sees the
    old bytes or the new ones, never a torn file.  The store is a
    cache: failing to publish must not fail the run, so an ``OSError``
    removes the temp file and returns ``False``.
    """
    path = Path(path)
    tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(tmp, "wb") as fh:
            _write(fh, trace)
        os.replace(tmp, path)
    except OSError:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        return False
    return True


class TraceStoreVersionError(TraceStoreError):
    """A packed trace file uses a format version this build cannot read."""


def _unpack(buffer, path: Path) -> Trace:
    view = memoryview(buffer)
    if len(view) < _HEADER.size + _DIGEST_BYTES:
        raise TraceStoreError(f"{path}: truncated packed trace")
    magic, version, name_len, n = _HEADER.unpack_from(view, 0)
    if magic != _MAGIC:
        raise TraceStoreError(f"{path}: not a packed trace (bad magic)")
    if version != _FORMAT_VERSION:
        raise TraceStoreVersionError(
            f"{path}: unsupported packed-trace version {version}")
    offset = _HEADER.size + name_len
    offset += _padding(offset)
    record_bytes = sum(np.dtype(dtype).itemsize for _, dtype in _COLUMNS)
    expected = offset + n * record_bytes + _DIGEST_BYTES
    if len(view) != expected:
        raise TraceStoreError(
            f"{path}: truncated packed trace "
            f"({len(view)} bytes, expected {expected})")
    digest = hashlib.sha256(view[:expected - _DIGEST_BYTES]).digest()
    if digest != bytes(view[expected - _DIGEST_BYTES:expected]):
        raise TraceStoreError(f"{path}: digest mismatch (corrupt file)")
    name = bytes(view[_HEADER.size:_HEADER.size + name_len]).decode("utf-8")
    columns = {}
    for column, dtype in _COLUMNS:
        columns[column] = np.frombuffer(buffer, dtype=dtype, count=n,
                                        offset=offset)
        offset += n * np.dtype(dtype).itemsize
    return Trace(columns["pcs"], columns["types"], columns["takens"],
                 columns["targets"], columns["gaps"], name=name)


def read_packed(path: Union[str, Path]) -> Trace:
    """Load a packed trace, verifying its structure and digest.

    The column arrays are read-only zero-copy views over a shared memory
    mapping of the file; a file that cannot be mapped is read into
    process-private memory instead.  Raises :class:`TraceStoreError` on
    any structural or checksum problem.
    """
    path = Path(path)
    try:
        with open(path, "rb") as fh:
            try:
                buffer = mmap.mmap(fh.fileno(), 0, access=mmap.ACCESS_READ)
            except (ValueError, OSError):  # empty file / no mmap
                buffer = fh.read()
    except OSError as error:
        raise TraceStoreError(f"{path}: unreadable ({error})") from error
    return _unpack(buffer, path)


def cache_root() -> Path:
    """Where every cache lives: ``REPRO_CACHE_DIR``, else
    ``~/.cache/repro-llbp``.  Traces, results and the checkpoint
    journals all sit under it, so moving it moves them together."""
    env = os.environ.get("REPRO_CACHE_DIR")
    return Path(env) if env else Path.home() / ".cache" / "repro-llbp"


class TraceStore:
    """Content-addressed on-disk cache of packed workload traces."""

    def __init__(self, root: Optional[Union[str, Path]] = None) -> None:
        self.root = Path(root) if root is not None else cache_root() / "traces"

    @staticmethod
    def key(name: str, seed: int, instructions: int) -> str:
        """Digest of the full generation request — the content address."""
        spec = (f"{name}|seed={seed}|instructions={instructions}"
                f"|gen=v{TRACE_GENERATION}|fmt=v{_FORMAT_VERSION}")
        return hashlib.sha256(spec.encode()).hexdigest()

    def path_for(self, name: str, seed: int, instructions: int) -> Path:
        digest = self.key(name, seed, instructions)
        return self.root / f"{name}-{digest[:16]}.rpt"

    def load(self, name: str, seed: int,
             instructions: int) -> Optional[Trace]:
        """Return the cached trace, or ``None`` on a miss.

        A structurally invalid or checksum-failing file is removed and
        reported as a miss, so the caller regenerates over it.
        """
        path = self.path_for(name, seed, instructions)
        if not path.exists():
            telemetry.emit("trace.store_miss", workload=name,
                           instructions=instructions, reason="absent")
            return None
        try:
            trace = read_packed(path)
        except TraceStoreError as error:
            # A file from a different build is structurally sound,
            # just not readable here: a miss distinct from corruption.
            reason = ("version"
                      if isinstance(error, TraceStoreVersionError)
                      else "corrupt")
            telemetry.emit("trace.store_miss", workload=name,
                           instructions=instructions, reason=reason,
                           error=str(error))
            try:
                os.unlink(path)
            except OSError:
                pass
            return None
        trace.store_path = path
        telemetry.emit("trace.store_hit", workload=name,
                       instructions=instructions,
                       records=len(trace), path=str(path))
        return trace

    def store(self, trace: Trace, name: str, seed: int,
              instructions: int) -> Path:
        """Publish ``trace`` under its content address; returns the path.

        ``trace.store_path`` is set only once the file is in place.
        """
        path = self.path_for(name, seed, instructions)
        if write_packed(trace, path):
            trace.store_path = path
        return path

