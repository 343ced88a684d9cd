"""Structured error taxonomy for the resilient experiment harness.

Every failure the harness can classify derives from :class:`HarnessError`,
so sweep drivers can catch one base class and still report precise
categories.  The emulator-facing subset derives from
:class:`EmulatorError`, preserving the historical name that the rest of
the codebase (and its tests) already catch.

This module is intentionally a leaf — it imports nothing from
``repro`` — so the emulator, memory, timing and experiments layers can
all share the taxonomy without import cycles.
"""

from __future__ import annotations


class HarnessError(RuntimeError):
    """Base class for every structured failure the harness classifies."""


class EmulatorError(HarnessError):
    """Illegal guest execution (bad PC, unknown op, runaway loop)."""


class IllegalInstruction(EmulatorError):
    """The PC left the text segment or the fetched word does not decode."""


class MemoryFault(EmulatorError):
    """An invalid guest memory access (e.g. a misaligned word access)."""


class RunawayExecution(EmulatorError):
    """A watchdog budget (step count or wall clock) was exhausted."""


class GuestSelfCheckFailure(HarnessError):
    """A workload ran but did not produce its expected self-check output."""


class TraceCorruption(HarnessError, ValueError):
    """A serialized trace failed checksum, field or format validation.

    Also a :class:`ValueError` so pre-taxonomy callers that caught
    ``ValueError`` from :func:`repro.emulator.tracefile.unpack_trace`
    keep working.
    """


class ResultCorruption(HarnessError, ValueError):
    """A serialized result file failed checksum or format validation.

    Also a :class:`ValueError` for the same compatibility reason as
    :class:`TraceCorruption`.
    """


class JournalCorruption(HarnessError, ValueError):
    """A sweep journal failed checksum/format validation, or a resume
    was attempted against a journal recorded for a different sweep
    (grid, budgets, or program images changed).

    Also a :class:`ValueError` for consistency with the other
    serialization errors.
    """


class WorkerCrash(HarnessError):
    """A supervised worker process died (its pipe hit EOF) or froze (its
    heartbeat went silent) while holding a sweep cell.

    Raised parent-side by the supervisor; the cell it interrupted is
    retried on a respawned worker and, past the retry budget,
    quarantined as a :class:`~repro.experiments.runner.FailureRecord`.
    """


__all__ = [
    "EmulatorError",
    "GuestSelfCheckFailure",
    "HarnessError",
    "IllegalInstruction",
    "JournalCorruption",
    "MemoryFault",
    "ResultCorruption",
    "RunawayExecution",
    "TraceCorruption",
    "WorkerCrash",
]
