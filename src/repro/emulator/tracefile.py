"""Trace serialization: pack dynamic traces into compact numpy arrays.

Collecting a steady-state trace means emulating through millions of
initialization instructions; serializing it lets a trace be collected
once and re-simulated many times (across processes, parameter sweeps,
CI runs).  A :class:`~repro.emulator.trace.Trace`'s columns pack into
eight parallel ``uint32`` / ``int64`` / ``bool`` arrays inside a single
``.npz`` file; each record's instruction is stored as its 32-bit
encoding, encoded once per static instruction and decoded once per
distinct word on load (decode results are cached per word, so loaded
traces share ``Instruction`` objects).

Robustness guarantees (format version 2):

* **Atomic writes** — :func:`save_trace` writes to a temporary file in
  the destination directory, fsyncs, then ``os.replace``s it into
  place, so an interrupted run never leaves a truncated trace behind.
* **Embedded checksum** — a CRC-32 over every field array (including
  the version marker) is stored in the file; :func:`load_trace`
  verifies it and raises
  :class:`~repro.harness.errors.TraceCorruption` on any mismatch.
* **Strict versioning** — a file written by an unknown (e.g. future)
  format raises :class:`TraceCorruption` instead of being silently
  misread.  Version-1 files (pre-checksum) still load.

numpy is imported inside the functions that pack, save, load, validate
or unpack a trace, not at module level: every ``repro-experiment``
process imports this module through the trace cache, and a run that
never touches a trace file (a sampled sweep, Figure 1) then loads no
numpy.
"""

from __future__ import annotations

import os
import tempfile
import zlib
from functools import lru_cache
from pathlib import Path
from typing import TYPE_CHECKING

from repro.emulator.trace import COLUMNS, Trace, as_trace
from repro.harness.errors import TraceCorruption
from repro.isa.encoding import decode, encode

if TYPE_CHECKING:  # pragma: no cover
    import numpy as np

#: Format marker stored inside the file for forward compatibility.
#: Version 2 added the embedded CRC-32 checksum.
FORMAT_VERSION = 2

#: Oldest format this build still reads (version 1 lacks the checksum).
OLDEST_SUPPORTED_VERSION = 1

#: Data fields, in canonical (checksum) order.
_FIELDS = ("pc", "word", "rs_val", "rt_val", "result", "mem_addr", "taken", "next_pc")


def _checksum(arrays: dict[str, np.ndarray]) -> int:
    """CRC-32 over the version marker and every field array."""
    import numpy as np

    crc = 0
    for name in ("version",) + _FIELDS:
        arr = np.ascontiguousarray(arrays[name])
        crc = zlib.crc32(name.encode(), crc)
        crc = zlib.crc32(str(arr.dtype).encode(), crc)
        crc = zlib.crc32(arr.tobytes(), crc)
    return crc & 0xFFFFFFFF


def pack_trace(trace) -> dict[str, np.ndarray]:
    """Pack a :class:`Trace` (or an iterable of :class:`TraceRecord`)
    into numpy arrays, encoding each static instruction once."""
    import numpy as np

    trace = as_trace(trace)
    n = len(trace)
    static = np.fromiter(trace.static, dtype=np.intp, count=n)
    words = np.array([encode(inst) for inst in trace.statics], dtype=np.uint32)
    arrays = {
        "version": np.array([FORMAT_VERSION], dtype=np.uint32),
        "pc": np.array(trace.pc[:n], dtype=np.uint32),
        "word": words[static],
        "rs_val": np.array(trace.rs_val[:n], dtype=np.uint32),
        "rt_val": np.array(trace.rt_val[:n], dtype=np.uint32),
        "result": (np.array(trace.result[:n], dtype=np.int64) & 0xFFFFFFFF).astype(np.uint32),
        "mem_addr": np.array(trace.mem_addr[:n], dtype=np.int64),  # -1 needs a signed type
        "taken": np.array(trace.taken[:n], dtype=np.bool_),
        "next_pc": np.array(trace.next_pc[:n], dtype=np.uint32),
    }
    arrays["checksum"] = np.array([_checksum(arrays)], dtype=np.uint32)
    return arrays


@lru_cache(maxsize=65536)
def _decode_cached(word: int):
    return decode(word)


def validate_arrays(arrays: dict[str, np.ndarray]) -> int:
    """Validate version, field presence, lengths and checksum.

    Returns the file's format version.

    Raises:
        TraceCorruption: any structural or checksum problem.
    """
    if "version" not in arrays or not len(arrays["version"]):
        raise TraceCorruption("trace has no format-version marker; not a trace file or truncated")
    version = int(arrays["version"][0])
    if not OLDEST_SUPPORTED_VERSION <= version <= FORMAT_VERSION:
        raise TraceCorruption(
            f"trace stored format version {version}, but this build reads versions "
            f"{OLDEST_SUPPORTED_VERSION}..{FORMAT_VERSION}; refusing to guess at its layout"
        )
    missing = [f for f in _FIELDS if f not in arrays]
    if missing:
        raise TraceCorruption(f"trace is missing field array(s): {', '.join(missing)}")
    n = len(arrays["pc"])
    bad_len = [f for f in _FIELDS if len(arrays[f]) != n]
    if bad_len:
        raise TraceCorruption(f"trace field length mismatch in: {', '.join(bad_len)}")
    if version >= 2:
        if "checksum" not in arrays or not len(arrays["checksum"]):
            raise TraceCorruption("version-2 trace is missing its checksum array")
        stored = int(arrays["checksum"][0])
        actual = _checksum(arrays)
        if stored != actual:
            raise TraceCorruption(
                f"trace checksum mismatch: stored {stored:#010x}, computed {actual:#010x} "
                f"— the file is corrupt (bit rot, truncation, or a tampered field)"
            )
    return version


def unpack_trace(arrays: dict[str, np.ndarray]) -> Trace:
    """Rebuild the :class:`Trace` packed into *arrays*, decoding each
    distinct instruction word once.

    Raises:
        TraceCorruption: the arrays fail version/checksum validation.
    """
    import numpy as np

    validate_arrays(arrays)
    words, static = np.unique(arrays["word"], return_inverse=True)
    return Trace(
        arrays["pc"].tolist(),
        static.tolist(),
        [_decode_cached(word) for word in words.tolist()],
        *(arrays[name].tolist() for name in COLUMNS[1:]),
    )


def _normalize_path(path: str | Path) -> Path:
    """Mirror ``np.savez``'s behavior of appending ``.npz``."""
    path = Path(path)
    return path if path.name.endswith(".npz") else path.with_name(path.name + ".npz")


def save_trace(path: str | Path, trace) -> int:
    """Write a trace to *path* (``.npz``) atomically; returns the count.

    The arrays are written to a temporary file in the destination
    directory, flushed and fsynced, then renamed over *path* — an
    interrupted save never leaves a partial trace at *path*.
    """
    import numpy as np

    arrays = pack_trace(trace)
    path = _normalize_path(path)
    fd, tmp = tempfile.mkstemp(dir=str(path.parent) or ".", prefix=path.name + ".", suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            np.savez_compressed(fh, **arrays)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
    return len(arrays["pc"])


def load_trace(path: str | Path) -> Trace:
    """Load a trace written by :func:`save_trace`.

    Raises:
        FileNotFoundError: *path* does not exist.
        TraceCorruption: the file is truncated, not an ``.npz`` archive,
            fails its checksum, or stores an unknown format version.
    """
    import numpy as np

    path = _normalize_path(path)
    if not path.exists():
        raise FileNotFoundError(str(path))
    try:
        with np.load(path) as data:
            arrays = {k: data[k] for k in data.files}
    except TraceCorruption:
        raise
    except Exception as exc:  # zipfile.BadZipFile, ValueError, EOFError, ...
        raise TraceCorruption(f"{path}: unreadable trace archive (truncated write?): {exc}") from exc
    return unpack_trace(arrays)


__all__ = [
    "FORMAT_VERSION",
    "OLDEST_SUPPORTED_VERSION",
    "load_trace",
    "pack_trace",
    "save_trace",
    "unpack_trace",
    "validate_arrays",
]
