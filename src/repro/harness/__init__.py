"""Robustness subsystem: error taxonomy, watchdogs, fault injection.

The harness makes long sweeps survivable: structured errors so failures
classify instead of surfacing as raw tracebacks
(:mod:`repro.harness.errors`), step/wall-clock watchdogs so runaway
guests are bounded (:mod:`repro.harness.watchdog`), guest self-check
validation (:mod:`repro.harness.selfcheck`), a seeded fault-injection
engine that proves the sliced datapath's golden-model cross-check
catches every injected bit flip (:mod:`repro.harness.faults`), and the
supervised sweep's worker process (:mod:`repro.harness.worker`).  The
last two are imported on use, not by this package.
"""

from repro.harness.errors import (
    EmulatorError,
    GuestSelfCheckFailure,
    HarnessError,
    IllegalInstruction,
    MemoryFault,
    ResultCorruption,
    RunawayExecution,
    TraceCorruption,
)
from repro.harness.selfcheck import verify_guest_output
from repro.harness.watchdog import Watchdog

__all__ = [
    "EmulatorError",
    "GuestSelfCheckFailure",
    "HarnessError",
    "IllegalInstruction",
    "MemoryFault",
    "ResultCorruption",
    "RunawayExecution",
    "TraceCorruption",
    "Watchdog",
    "verify_guest_output",
]
