"""Crash-safe sweep journal: the resume substrate for long campaigns.

A sweep is a (benchmark × configuration) grid of *cells*, each a pure
function of its inputs.  The journal persists the grid's progress so an
interrupted run — a SIGKILLed worker, a Ctrl-C at hour three, a host
reboot — resumes from where it stopped instead of silently losing
everything: ``--resume <journal>`` replays completed cells from the
result store and re-dispatches only the remainder, and because every
cell is deterministic the merged :class:`~repro.timing.stats.SimStats`
are bit-identical to an uninterrupted run.

Layout on disk::

    sweep.journal.json           the journal (atomic, checksummed,
                                 dir-fsynced: survives a power cut)
    sweep.journal.results/       the result store
        <cell key>.json          one finished cell's SimStats payload
                                 (atomic, checksummed)

Safety properties (the same discipline as the trace cache):

* **Keying** — every cell is identified by a SHA-256 over the
  benchmark, the configuration *contents* (not just its name), the
  instruction/warmup budgets, the collection parameters, and the
  assembled program-image hash.  Any change to the sweep's semantics
  changes the keys, so a stale journal can never be silently resumed:
  :meth:`SweepJournal.match_cells` reports the mismatch instead.
* **Integrity** — journal and result files embed a SHA-256 self
  checksum (via :func:`repro.experiments.results_io.payload_checksum`)
  and are written by :func:`repro.harness.atomicio.atomic_write_json`;
  a torn write is impossible, a corrupted file raises
  :class:`~repro.harness.errors.JournalCorruption` (journal) or is
  demoted to a re-executed cell (result store).
* **Monotonicity** — a ``done`` cell's result is written to the store
  *before* the journal flips its state, so the journal never points at
  a result that does not exist.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path

from repro.experiments.results_io import payload_checksum
from repro.harness.atomicio import atomic_write_json
from repro.harness.errors import JournalCorruption
from repro.obs.tracing import traced
from repro.timing.stats import METRIC_CATALOG, SimStats

#: Journal / result-store schema version (strictly validated).
JOURNAL_FORMAT = 1

#: Cell lifecycle states.
PENDING = "pending"
RUNNING = "running"
DONE = "done"
FAILED = "failed"
QUARANTINED = "quarantined"

CELL_STATES = (PENDING, RUNNING, DONE, FAILED, QUARANTINED)


# --------------------------------------------------------------------------
# SimStats <-> JSON payload (bit-identical round trip)
# --------------------------------------------------------------------------

def stats_to_payload(stats: SimStats) -> dict:
    """Serialize a :class:`SimStats` for the result store.

    Only the stored counters and ``extra`` go in (all ints/floats,
    which JSON round-trips exactly); derived rates recompute on load,
    so a journal replay merges bit-identically with fresh cells.
    """
    payload = {"config_name": stats.config_name}
    for name in METRIC_CATALOG:
        payload[name] = getattr(stats, name)
    payload["extra"] = dict(stats.extra)
    return payload


def stats_from_payload(payload: dict) -> SimStats:
    """Reconstruct a :class:`SimStats` from :func:`stats_to_payload`."""
    stats = SimStats(config_name=payload["config_name"])
    for name in METRIC_CATALOG:
        setattr(stats, name, payload[name])
    stats.extra = dict(payload.get("extra", {}))
    return stats


# --------------------------------------------------------------------------
# Cell identity
# --------------------------------------------------------------------------

def config_digest(config) -> str:
    """SHA-256 over a frozen :class:`MachineConfig`'s full contents.

    The *name* alone is not identity: two sweeps could bind the same
    name to different feature sets.  Frozen-dataclass ``repr`` is
    deterministic and covers every field.
    """
    return hashlib.sha256(repr(config).encode()).hexdigest()


def cell_key(
    benchmark: str,
    config,
    max_steps: int,
    warmup: int,
    iters: int | None,
    skip: int | None,
    profile: str,
    image_digest: str,
    sampling: str | None = None,
) -> str:
    """Deterministic identity of one (benchmark × config × budget) cell.

    *sampling* is the :meth:`~repro.timing.sampling.SamplingPlan.canonical`
    string of a sampled cell (window/interval/seed/CI knobs all
    included), so a sampled sweep can never resume from an exact
    journal or from one sampled under different parameters.  ``None``
    (exact cells) contributes nothing, keeping pre-sampling keys
    stable.
    """
    parts = [
        f"journal={JOURNAL_FORMAT}",
        f"benchmark={benchmark}",
        f"config={config_digest(config)}",
        f"max_steps={max_steps}",
        f"warmup={warmup}",
        f"iters={'auto' if iters is None else iters}",
        f"skip={'auto' if skip is None else skip}",
        f"profile={profile}",
        f"image={image_digest}",
    ]
    if sampling is not None:
        parts.append(f"sampling={sampling}")
    return hashlib.sha256("|".join(parts).encode()).hexdigest()


@dataclass
class CellRecord:
    """One cell's journal entry."""

    benchmark: str
    config: str            # config *name*, for humans; the key is identity
    key: str
    state: str = PENDING
    attempts: int = 0
    error: str | None = None

    def to_dict(self) -> dict:
        return {
            "benchmark": self.benchmark,
            "config": self.config,
            "key": self.key,
            "state": self.state,
            "attempts": self.attempts,
            "error": self.error,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "CellRecord":
        state = payload["state"]
        if state not in CELL_STATES:
            raise JournalCorruption(f"unknown cell state {state!r}")
        return cls(
            benchmark=payload["benchmark"],
            config=payload["config"],
            key=payload["key"],
            state=state,
            attempts=int(payload["attempts"]),
            error=payload.get("error"),
        )


# --------------------------------------------------------------------------
# The journal
# --------------------------------------------------------------------------

@dataclass
class SweepJournal:
    """Persistent progress record of one sweep grid.

    Every mutation flushes atomically (checksummed, dir-fsynced), so
    the on-disk journal is always a consistent snapshot some prefix of
    the run produced — the property that makes kill-resume safe.
    """

    path: Path
    spec: dict = field(default_factory=dict)
    cells: list[CellRecord] = field(default_factory=list)
    summary: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.path = Path(self.path)
        self._by_key = {cell.key: cell for cell in self.cells}

    # ------------------------------------------------------------ lifecycle

    @classmethod
    def create(cls, path: str | Path, spec: dict, cells: list[CellRecord]) -> "SweepJournal":
        """Start a fresh journal (overwriting any previous file)."""
        journal = cls(path=Path(path), spec=dict(spec), cells=list(cells))
        journal.flush()
        return journal

    @classmethod
    def load(cls, path: str | Path) -> "SweepJournal":
        """Load and validate a journal written by :meth:`flush`.

        Raises:
            JournalCorruption: missing file, invalid JSON, unknown
                format version, or checksum mismatch.
        """
        path = Path(path)
        try:
            payload = json.loads(path.read_text())
        except FileNotFoundError:
            raise JournalCorruption(f"{path}: journal does not exist") from None
        except json.JSONDecodeError as exc:
            raise JournalCorruption(f"{path}: not valid JSON (torn write?): {exc}") from None
        if payload.get("format") != JOURNAL_FORMAT:
            raise JournalCorruption(
                f"{path}: unsupported journal format {payload.get('format')!r}; "
                f"this build writes version {JOURNAL_FORMAT}"
            )
        stored = payload.get("checksum")
        actual = payload_checksum(payload)
        if not stored or stored != actual:
            raise JournalCorruption(
                f"{path}: checksum mismatch — the journal was corrupted or "
                f"hand-edited (stored {str(stored)[:12]}…, computed {actual[:12]}…)"
            )
        journal = cls(
            path=path,
            spec=payload["spec"],
            cells=[CellRecord.from_dict(c) for c in payload["cells"]],
            summary=payload.get("summary", {}),
        )
        # A crash mid-cell leaves RUNNING entries; they never finished
        # (their result was not stored), so a resume re-dispatches them.
        for cell in journal.cells:
            if cell.state == RUNNING:
                cell.state = PENDING
        return journal

    def flush(self) -> None:
        """Persist the journal atomically (checksummed, dir-fsynced)."""
        payload = {
            "format": JOURNAL_FORMAT,
            "spec": self.spec,
            "cells": [cell.to_dict() for cell in self.cells],
            "summary": self.summary,
        }
        payload["checksum"] = payload_checksum(payload)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        # Measure the measurement infrastructure: the journal's
        # atomic+fsync flushes are the supervisor's main overhead.
        with traced("journal.flush", category="journal"):
            atomic_write_json(self.path, payload, sync_dir=True)

    # ------------------------------------------------------------- queries

    def cell(self, key: str) -> CellRecord:
        return self._by_key[key]

    def match_cells(self, cells: list[CellRecord]) -> None:
        """Require the journal to describe exactly this grid.

        Raises:
            JournalCorruption: the requested sweep's cell keys differ
                from the journal's — the grid, budgets, configuration
                contents or program images changed since it was
                written, so resuming it would mix incompatible results.
        """
        ours = {cell.key for cell in self.cells}
        theirs = {cell.key for cell in cells}
        if ours != theirs:
            missing, extra = len(theirs - ours), len(ours - theirs)
            raise JournalCorruption(
                f"{self.path}: journal does not match the requested sweep "
                f"({missing} requested cell(s) absent from the journal, "
                f"{extra} journal cell(s) not requested) — the grid, budget, "
                f"configuration or program image changed; start a fresh journal"
            )

    # -------------------------------------------------------- transitions

    def mark_running(self, key: str) -> None:
        cell = self._by_key[key]
        cell.state = RUNNING
        cell.attempts += 1
        self.flush()

    def mark_done(self, key: str, stats: SimStats) -> None:
        """Store the cell's result, then flip its state (in that order,
        so the journal never references a result that is not on disk)."""
        self.store_result(key, stats)
        cell = self._by_key[key]
        cell.state = DONE
        cell.error = None
        self.flush()

    def mark_retry(self, key: str, error: str) -> None:
        """A failed attempt that stays retryable: back to pending."""
        cell = self._by_key[key]
        cell.state = PENDING
        cell.error = error
        self.flush()

    def mark_failed(self, key: str, error: str, quarantined: bool = False) -> None:
        cell = self._by_key[key]
        cell.state = QUARANTINED if quarantined else FAILED
        cell.error = error
        self.flush()

    # -------------------------------------------------------- result store

    @property
    def results_dir(self) -> Path:
        return self.path.with_name(self.path.name + ".results")

    def result_path(self, key: str) -> Path:
        return self.results_dir / f"{key}.json"

    def store_result(self, key: str, stats: SimStats) -> Path:
        payload = {
            "format": JOURNAL_FORMAT,
            "key": key,
            "stats": stats_to_payload(stats),
        }
        payload["checksum"] = payload_checksum(payload)
        path = self.result_path(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        atomic_write_json(path, payload, sync_dir=True)
        return path

    def load_result(self, key: str) -> SimStats | None:
        """The stored :class:`SimStats` for *key*, or ``None`` if the
        result file is missing or fails validation (the caller demotes
        the cell and re-executes it — degraded speed, never degraded
        correctness)."""
        path = self.result_path(key)
        try:
            payload = json.loads(path.read_text())
        except (OSError, json.JSONDecodeError):
            return None
        if payload.get("format") != JOURNAL_FORMAT or payload.get("key") != key:
            return None
        if payload.get("checksum") != payload_checksum(payload):
            return None
        return stats_from_payload(payload["stats"])


__all__ = [
    "CELL_STATES",
    "DONE",
    "FAILED",
    "JOURNAL_FORMAT",
    "PENDING",
    "QUARANTINED",
    "RUNNING",
    "CellRecord",
    "SweepJournal",
    "cell_key",
    "config_digest",
    "stats_from_payload",
    "stats_to_payload",
]
