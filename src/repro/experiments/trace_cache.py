"""Persistent on-disk trace cache.

Dynamic traces are deterministic: the same benchmark, collection
parameters and program image always emulate to the same record stream.
Re-collecting them in every process is therefore pure waste — the same
observation behind uops.info's cached measurement sets and
way-memoization.  This module memoizes collections on disk, under
``~/.cache/repro-traces/`` by default (override with the
``REPRO_TRACE_CACHE`` environment variable or the CLI's
``--trace-cache``/``--no-trace-cache``).

Safety properties:

* **Keying** — a cache file is named by a SHA-256 over the benchmark
  name, every collection parameter (window, iters, skip, input
  profile), a content hash of the assembled program image, and the
  trace-file + cache schema versions.  Any change to the workload
  source, the assembler output, or the collection semantics changes
  the key: stale entries are never *read*, they are simply orphaned.
* **Integrity** — entries are written atomically
  (:func:`repro.emulator.tracefile.save_trace`: temp file + fsync +
  rename) and carry the trace format's embedded CRC-32.  A torn,
  truncated or bit-rotted file fails validation on load and silently
  falls back to re-collection (the bad file is dropped), never
  corrupting results.
* **Concurrency** — writers never clobber readers (atomic rename), and
  two processes racing to fill the same key both produce identical
  bytes, so last-writer-wins is harmless: a ``sweep --jobs N`` run's
  workers share one cache.
"""

from __future__ import annotations

import hashlib
import os
import sys
from pathlib import Path

from repro.context import current
from repro.emulator.tracefile import FORMAT_VERSION, load_trace, save_trace
from repro.harness.errors import TraceCorruption
from repro.isa.assembler import program_digest

#: Bump when collection semantics change in a way the key cannot see
#: (e.g. the skip-hint estimator): all old entries become orphans.
CACHE_SCHEMA = 1

#: Environment override for the cache directory; the values ``off``,
#: ``0`` and ``none`` disable the cache entirely.
ENV_VAR = "REPRO_TRACE_CACHE"

#: Default location, per the XDG convention.
DEFAULT_DIR = "~/.cache/repro-traces"

_DISABLING_VALUES = ("off", "0", "none", "disabled")

#: Hit/miss counters (exported into run manifests), plus entries that
#: failed validation and were dropped.  Recovery is automatic
#: (re-collect), but it must never be *silent*: a climbing
#: ``corrupt_entries`` means disk trouble, and a user deserves to know
#: their warm cache is quietly rotting.  Each counts into the run
#: context as ``trace_cache.<name>``, which carries a sweep worker's
#: counts home with each reply.
_COUNTERS = ("hits", "misses", "corrupt_entries")


def configure(directory: str | Path | None = None, enabled: bool | None = None) -> None:
    """Set (or with ``None`` arguments, clear) the explicit cache config
    in the run context.

    Explicit configuration wins over the ``REPRO_TRACE_CACHE``
    environment variable, which wins over the default directory.
    """
    context = current()
    context.cache_dir = Path(directory).expanduser() if directory is not None else None
    context.cache_enabled = enabled


def enabled() -> bool:
    """Whether the persistent cache is active for this process."""
    configured = current().cache_enabled
    if configured is not None:
        return configured
    value = os.environ.get(ENV_VAR, "").strip().lower()
    return value not in _DISABLING_VALUES


def cache_dir() -> Path:
    """The active cache directory (not necessarily created yet)."""
    configured = current().cache_dir
    if configured is not None:
        return configured
    value = os.environ.get(ENV_VAR, "").strip()
    if value and value.lower() not in _DISABLING_VALUES:
        return Path(value).expanduser()
    return Path(DEFAULT_DIR).expanduser()


def cache_key(
    name: str,
    max_steps: int,
    iters: int | None,
    skip: int | None,
    profile: str,
    program,
) -> str:
    """Deterministic key for one (benchmark, parameters, image) trace."""
    canonical = "|".join(
        (
            f"schema={CACHE_SCHEMA}",
            f"tracefmt={FORMAT_VERSION}",
            f"name={name}",
            f"max_steps={max_steps}",
            f"iters={'auto' if iters is None else iters}",
            f"skip={'auto' if skip is None else skip}",
            f"profile={profile}",
            f"image={program_digest(program)}",
        )
    )
    return hashlib.sha256(canonical.encode()).hexdigest()


def entry_path(name: str, key: str) -> Path:
    """File that caches the trace for *key* (name kept for legibility)."""
    return cache_dir() / f"{name}-{key[:24]}.npz"


def load(name: str, key: str):
    """Return the cached :class:`~repro.emulator.trace.Trace` for *key*,
    or ``None`` on a miss.

    A corrupt or torn entry counts as a miss: it is removed
    (best-effort) and the caller re-collects — degraded performance,
    never degraded correctness.  Counters update as a side effect.
    """
    if not enabled():
        return None
    context = current()
    path = entry_path(name, key)
    try:
        trace = load_trace(path)
    except FileNotFoundError:
        context.count("trace_cache.misses")
        return None
    except (TraceCorruption, OSError) as exc:
        context.count("trace_cache.misses")
        context.count("trace_cache.corrupt_entries")
        print(
            f"[trace-cache] warning: dropped corrupt entry {path.name} "
            f"({type(exc).__name__}: {exc}); re-collecting {name}",
            file=sys.stderr,
            flush=True,
        )
        try:
            path.unlink()
        except OSError:
            pass
        return None
    context.count("trace_cache.hits")
    return trace


def store(name: str, key: str, trace) -> Path | None:
    """Persist a freshly collected trace (best-effort; never raises)."""
    if not enabled():
        return None
    path = entry_path(name, key)
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        save_trace(path, trace)
    except OSError:
        return None
    return path


def stats() -> dict:
    """Hit/miss counters plus the active configuration, for manifests."""
    counters = current().counters
    return {
        "enabled": enabled(),
        "dir": str(cache_dir()),
        **{name: counters.get(f"trace_cache.{name}", 0) for name in _COUNTERS},
    }


__all__ = [
    "CACHE_SCHEMA",
    "DEFAULT_DIR",
    "ENV_VAR",
    "cache_dir",
    "cache_key",
    "configure",
    "enabled",
    "entry_path",
    "load",
    "stats",
    "store",
]
