"""Figure 1: pipelined execution with partial operand knowledge.

The paper's Figure 1 is conceptual: the same dependent-instruction
chain under (a) a non-pipelined EX stage, (b) a conventionally
pipelined EX stage, and (c) a pipelined EX stage exposing partial
operand knowledge.  This experiment regenerates it concretely, as
rendered pipeline timelines over the exact Figure 1 code shape
(add → addi → lw → beq, plus an independent sub).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.config import MachineConfig, baseline_config, bitslice_config, describe, simple_pipeline_config
from repro.emulator.machine import Machine
from repro.isa.assembler import assemble
from repro.obs.events import EventTrace
from repro.obs.guestprof import suspended_guest_profile
from repro.timing.pipeview import TimelineEvent, render_timeline
from repro.timing.simulator import TimingSimulator

#: The Figure 1 instruction chain, wrapped in a warm loop.
FIGURE1_SOURCE = """
        .data
        .align 2
table:  .space 512
        .text
main:   li   $s0, 60
        la   $s5, table
        li   $s1, 24
        li   $s2, 3
loop:   add  $s3, $s1, $s2       # add  R3, R2, R1
        addi $s3, $s3, 4         # addi R3, R3, 4
        andi $s3, $s3, 0x1fc
        addu $a1, $s5, $s3
        lw   $s4, 0($a1)         # lw   R4, 0(R3)
        beq  $s6, $s4, taken     # beq  R5, R4, t
        sub  $s6, $s6, $s2       # sub  R5, R5, R1
taken:  addiu $s1, $s1, 5
        andi $s1, $s1, 0xff
        addiu $s0, $s0, -1
        bgtz $s0, loop
        halt
"""

#: The five Figure 1 mnemonic shapes, in chain order.
CHAIN = ("add", "addi", "lw", "beq", "sub")


@dataclass
class Figure1Result:
    #: config name → (config, steady-state window of timeline events).
    panels: dict[str, tuple[MachineConfig, list[TimelineEvent]]]
    ipcs: dict[str, float]

    def chain_span(self, name: str) -> int:
        """Cycles from the chain head's completion to the chain tail's
        completion in the displayed window (the Figure 1 'overlap'
        metric: smaller = more overlap between dependants)."""
        _, events = self.panels[name]
        chain = [e for e in events if e.mnemonic in CHAIN]
        if len(chain) < 2:
            return 0
        return max(e.complete for e in chain) - min(e.complete for e in chain)

    def rows(self):
        return [(name, self.ipcs[name], self.chain_span(name)) for name in self.panels]

    def render(self) -> str:
        parts = ["Figure 1 — the same dependence chain under three pipelines"]
        for name, (config, events) in self.panels.items():
            parts.append(f"\n--- {describe(config)} (IPC {self.ipcs[name]:.3f}) ---")
            parts.append(render_timeline(events, limit=len(events)))
        return "\n".join(parts)


def run(window: int = 11) -> Figure1Result:
    """Regenerate Figure 1's three panels.

    Each panel is one steady-state loop body near the end of the run,
    and the simulators record cycle events only from its first
    instruction on (:attr:`~repro.obs.events.EventTrace.first_seq`).

    The timing runs suspend the guest profile: the Figure 1 program is
    not a benchmark, and its cycles would otherwise land in the bucket
    of whichever benchmark began last.
    """
    trace = tuple(Machine(assemble(FIGURE1_SOURCE)).trace(3_000))
    first_seq = max(0, len(trace) - window - 22) + 1
    panels: dict[str, tuple[MachineConfig, list[TimelineEvent]]] = {}
    ipcs: dict[str, float] = {}
    with suspended_guest_profile():
        for config in (baseline_config(), simple_pipeline_config(2), bitslice_config(2)):
            events = EventTrace(capacity=None, first_seq=first_seq)
            sim = TimingSimulator(config, record_timeline=True, events=events)
            stats = sim.run(iter(trace))
            rows = [e for e in sim.timeline if e.seq < first_seq + window]
            panels[config.name] = (config, rows)
            ipcs[config.name] = stats.ipc
    return Figure1Result(panels=panels, ipcs=ipcs)
