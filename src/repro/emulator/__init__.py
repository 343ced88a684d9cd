"""Functional emulator substrate.

Executes assembled :class:`~repro.isa.assembler.Program` images at the
architectural level and produces the dynamic instruction traces consumed
by the characterization studies and the timing simulator.

Failure modes raise the structured taxonomy of
:mod:`repro.harness.errors` (re-exported here): bad fetches are
:class:`IllegalInstruction`, misaligned accesses are
:class:`MemoryFault` (via :class:`AlignmentError`), and watchdog
breaches are :class:`RunawayExecution` — all of them
:class:`EmulatorError` subclasses.
"""

from repro.emulator.machine import EmulatorError, IllegalInstruction, Machine
from repro.emulator.memory import AlignmentError, SparseMemory
from repro.emulator.trace import Trace, TraceRecord, trace_program
from repro.harness.errors import MemoryFault, RunawayExecution

__all__ = [
    "AlignmentError",
    "EmulatorError",
    "IllegalInstruction",
    "Machine",
    "MemoryFault",
    "RunawayExecution",
    "SparseMemory",
    "Trace",
    "TraceRecord",
    "trace_program",
]
