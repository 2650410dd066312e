"""Packed-binary trace store: one decode-ready file per generated trace.

The ``.npz`` cache (:mod:`repro.traces.io`) is a portable interchange
format, but it is the wrong shape for the batched simulation path: every
load pays zlib decompression and materialises five freshly allocated
arrays *per process*, so a pool of workers simulating the same workload
holds as many private copies of the trace as there are workers.

The store keeps each trace as a flat packed-binary file instead — a
fixed header, the five column arrays laid out raw (struct-of-arrays, no
pickle anywhere), and a trailing SHA-256 digest:

    magic "RPTB" | version u16 | name_len u16 | n_records u64
    | name utf-8 | pad to 16 | pcs u64[n] | targets u64[n]
    | gaps u16[n] | types u8[n] | takens u8[n] | sha256[32]

Format v2 appends zero or more *aux sections* after the main digest,
each carrying one derived column array (the array engine's precomputed
hash/fold columns, :mod:`repro.sim.columns`) and each self-checksummed
so corruption never poisons the branch data:

    magic "RPAX" | key_len u16 | dtype u16 | ncols u16 | nrows u64
    | key utf-8 | pad to 16 | data | sha256[32]

v1 files (no aux sections) read fine under v2 — they simply surface an
empty ``Trace.aux``; a *future* version still fails loudly in
:func:`read_packed` (and degrades to a regenerating cache miss in
:class:`TraceStore.load`, with a ``trace.store_stale`` event).  A
corrupt or truncated aux section is dropped — the main trace loads, the
missing columns are recomputed and republished.

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
corrupt ones), alongside the pre-existing ``trace.cache`` accounting.
"""

from __future__ import annotations

import hashlib
import io
import mmap
import os
import struct
from pathlib import Path
from typing import Dict, Optional, Union

import numpy as np

from repro import telemetry
from repro.traces.trace import Trace

_MAGIC = b"RPTB"
_FORMAT_VERSION = 2
#: Versions :func:`read_packed` accepts: v1 files predate aux sections
#: and read back with an empty ``aux`` dict.
_READABLE_VERSIONS = (1, 2)
#: Version baked into the content address.  Deliberately pinned at 1:
#: v2 changed only the *container* (optional appended sections), not the
#: branch data, so existing cached traces stay addressable.
_ADDRESS_VERSION = 1
_HEADER = struct.Struct("<4sHHQ")  # magic, version, name_len, n_records
_ALIGN = 16
_DIGEST_BYTES = 32

_AUX_MAGIC = b"RPAX"
# magic, key_len, dtype_code, ncols, nrows
_AUX_HEADER = struct.Struct("<4sHHHQ")
_AUX_DTYPES = {
    1: np.dtype(np.uint16),
    2: np.dtype(np.uint32),
    3: np.dtype(np.uint64),
    4: np.dtype(np.uint8),
}
_AUX_CODES = {dtype: code for code, dtype in _AUX_DTYPES.items()}

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


def _aux_section(key: str, array: np.ndarray, offset: int) -> list:
    """The parts of one aux column section starting at file ``offset``."""
    data = np.ascontiguousarray(array)
    try:
        code = _AUX_CODES[data.dtype]
    except KeyError:
        raise ValueError(
            f"aux column {key!r} has unsupported dtype {data.dtype}") from None
    if data.ndim == 1:
        nrows, ncols = len(data), 1
    elif data.ndim == 2:
        nrows, ncols = data.shape
    else:
        raise ValueError(f"aux column {key!r} must be 1-D or 2-D")
    key_bytes = key.encode("utf-8")
    if len(key_bytes) > 0xFFFF or ncols > 0xFFFF:
        raise ValueError(f"aux column {key!r} too large to pack")
    header = _AUX_HEADER.pack(_AUX_MAGIC, len(key_bytes), code, ncols, nrows)
    pad = b"\x00" * _padding(offset + len(header) + len(key_bytes))
    return [header, key_bytes, pad, _raw(data)]


def _section_size(parts: list) -> int:
    return sum(map(len, parts)) + _DIGEST_BYTES


def _sections(trace: Trace, aux: Dict[str, np.ndarray]) -> list:
    """The packed file for ``trace`` with ``aux`` as its aux sections.

    One list of parts per section, each to be followed by the sha256 of
    its parts: the header and branch columns first, then one section per
    ``aux`` array, sorted by key so packing is deterministic.  Array
    parts are views of the arrays themselves, so building this copies
    nothing and every format error is raised before a byte is written.
    """
    name = trace.name.encode("utf-8")
    if len(name) > 0xFFFF:
        raise ValueError("trace name too long to pack")
    head = _HEADER.pack(_MAGIC, _FORMAT_VERSION, len(name), len(trace)) + name
    main = [head, b"\x00" * _padding(len(head))]
    main.extend(_raw(getattr(trace, column), dtype)
                for column, dtype in _COLUMNS)
    sections = [main]
    offset = _section_size(main)
    for key in sorted(aux):
        section = _aux_section(key, aux[key], offset)
        sections.append(section)
        offset += _section_size(section)
    return sections


def _write_sections(out, sections: list) -> None:
    """Stream ``sections`` to ``out``, each followed by its sha256."""
    for parts in sections:
        digest = hashlib.sha256()
        for part in parts:
            digest.update(part)
            out.write(part)
        out.write(digest.digest())


def pack_trace(trace: Trace) -> bytes:
    """Serialise ``trace`` to the packed binary format (digest included).

    Any arrays in ``trace.aux`` are appended as self-checksummed aux
    sections (sorted by key, so packing is deterministic).
    """
    buffer = io.BytesIO()
    _write_sections(buffer, _sections(trace, trace.aux))
    return buffer.getvalue()


def _publish(path: Path, sections: list) -> bool:
    """Stream ``sections`` to a pid-temp file and rename it over ``path``.

    The store is a cache: failing to publish must not fail the run, so
    an ``OSError`` removes the temp file and returns ``False``.
    """
    tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as fh:
            _write_sections(fh, sections)
        os.replace(tmp, path)
    except OSError:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        return False
    return True


def write_packed(trace: Trace, path: Union[str, Path]) -> None:
    """Write ``trace`` to ``path`` atomically (pid-temp + rename)."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    _publish(path, _sections(trace, trace.aux))


class TraceStoreVersionError(TraceStoreError):
    """A packed trace file uses a format version this build cannot read."""


def _unpack_aux(buffer, view, start: int, path: Path) -> Dict[str, np.ndarray]:
    """Parse aux sections from ``start`` to end-of-file.

    Aux columns are a derived cache riding along with the trace: any
    structural or checksum problem drops the offending section (and the
    rest of the file) with a ``trace.store_stale`` event rather than
    failing the trace load — the caller recomputes and republishes.
    Sections already verified are kept.
    """
    aux: Dict[str, np.ndarray] = {}
    pos = start
    try:
        while pos < len(view):
            if len(view) - pos < _AUX_HEADER.size:
                raise TraceStoreError(f"{path}: truncated aux header")
            magic, key_len, code, ncols, nrows = _AUX_HEADER.unpack_from(
                view, pos)
            if magic != _AUX_MAGIC:
                raise TraceStoreError(f"{path}: bad aux magic")
            try:
                dtype = _AUX_DTYPES[code]
            except KeyError:
                raise TraceStoreError(
                    f"{path}: unknown aux dtype code {code}") from None
            data_off = pos + _AUX_HEADER.size + key_len
            data_off += _padding(data_off)
            end = data_off + nrows * ncols * dtype.itemsize + _DIGEST_BYTES
            if end > len(view):
                raise TraceStoreError(f"{path}: truncated aux section")
            digest = hashlib.sha256(view[pos:end - _DIGEST_BYTES]).digest()
            if digest != bytes(view[end - _DIGEST_BYTES:end]):
                raise TraceStoreError(f"{path}: aux digest mismatch")
            key_start = pos + _AUX_HEADER.size
            key = bytes(view[key_start:key_start + key_len]).decode("utf-8")
            array = np.frombuffer(buffer, dtype=dtype, count=nrows * ncols,
                                  offset=data_off)
            aux[key] = array if ncols == 1 else array.reshape(nrows, ncols)
            pos = end
    except TraceStoreError as error:
        telemetry.emit("trace.store_stale", path=str(path),
                       reason="aux-corrupt", error=str(error))
    return aux


def _unpack(buffer, path: Path) -> Trace:
    view = memoryview(buffer)
    if len(view) < _HEADER.size + _DIGEST_BYTES:
        raise TraceStoreError(f"{path}: truncated packed trace")
    magic, version, name_len, n = _HEADER.unpack_from(view, 0)
    if magic != _MAGIC:
        raise TraceStoreError(f"{path}: not a packed trace (bad magic)")
    if version not in _READABLE_VERSIONS:
        raise TraceStoreVersionError(
            f"{path}: unsupported packed-trace version {version}")
    offset = _HEADER.size + name_len
    offset += _padding(offset)
    record_bytes = sum(np.dtype(dtype).itemsize for _, dtype in _COLUMNS)
    expected = offset + n * record_bytes + _DIGEST_BYTES
    if (len(view) != expected) if version == 1 else (len(view) < expected):
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
    trace = Trace(columns["pcs"], columns["types"], columns["takens"],
                  columns["targets"], columns["gaps"], name=name)
    if version >= 2 and expected < len(view):
        trace.aux.update(_unpack_aux(buffer, view, expected, path))
    return trace


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


def _default_root() -> Path:
    env = os.environ.get("REPRO_CACHE_DIR")
    base = Path(env) if env else Path.home() / ".cache" / "repro-llbp"
    return base / "traces"


class TraceStore:
    """Content-addressed on-disk cache of packed workload traces."""

    def __init__(self, root: Optional[Union[str, Path]] = None) -> None:
        self.root = Path(root) if root is not None else _default_root()

    @staticmethod
    def key(name: str, seed: int, instructions: int) -> str:
        """Digest of the full generation request — the content address."""
        spec = (f"{name}|seed={seed}|instructions={instructions}"
                f"|gen=v{TRACE_GENERATION}|fmt=v{_ADDRESS_VERSION}")
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
            reason = ("version"
                      if isinstance(error, TraceStoreVersionError)
                      else "corrupt")
            if reason == "version":
                # A file from a different build: structurally sound,
                # just not readable here.  Flag it as stale (regenerated
                # below), distinct from on-disk corruption.
                telemetry.emit("trace.store_stale", workload=name,
                               instructions=instructions, path=str(path),
                               reason="version", error=str(error))
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
        """Publish ``trace`` under its content address; returns the path."""
        path = self.path_for(name, seed, instructions)
        write_packed(trace, path)
        trace.store_path = path
        return path


def append_aux(path: Union[str, Path], trace: Trace,
               arrays: Dict[str, np.ndarray]) -> bool:
    """Publish derived columns into ``trace``'s packed file at ``path``.

    ``arrays`` is every aux column the file should hold: the ones it was
    loaded with plus the new ones (``trace.aux`` may also carry
    in-process memos that stay out of the file).  The file is rebuilt
    from the in-memory, already verified ``trace``, never reread:
    each section is streamed to a pid-temp file with an incremental
    sha256, then renamed over ``path``, so the file holds exactly the
    bytes :func:`pack_trace` gives for ``trace`` with ``arrays`` as its
    aux and no part of it is copied into one buffer.  Concurrent
    appenders may lose each other's columns — acceptable for a
    derived-data cache, the loser simply recomputes next run — but never
    corrupt the file.  Returns ``False`` (without raising) if the file
    cannot be written.
    """
    return _publish(Path(path), _sections(trace, arrays))
