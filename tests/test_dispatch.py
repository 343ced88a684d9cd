"""Differential tests: the production tier vs. the golden reference.

The handlers generated from the semantics table (``Machine.step()``)
and the compiled blocks must be bit-identical to
``Machine.step_reference()`` — same ``TraceRecord`` stream, same
architectural state, same faults.  Random programs (hypothesis) and a
real benchmark slice are both driven through the interpreters in
lockstep.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.emulator.blocks import cross_check_blocks
from repro.emulator.dispatch import OPS, DispatchDivergence, bind, cross_check
from repro.emulator.machine import DISPATCH_ENV, Machine, default_dispatch
from repro.isa.assembler import TEXT_BASE, assemble
from repro.harness.errors import EmulatorError, IllegalInstruction
from repro.isa.instructions import Instruction
from repro.workloads import get_workload

from tests.test_differential import REGS, straight_line_program

_R_OPS = ("addu", "subu", "and", "or", "xor", "slt", "sltu")
_I_OPS = ("addiu", "andi", "ori", "xori", "slti")


@st.composite
def block_shaped_program(draw):
    """Source text shaped like what the blocks tier compiles.

    Tight counted loops (backward branches — superblock unrolling),
    forward branches (side exits), blocks of mixed length, contiguous
    and scattered memory traffic, stores adjacent to the text segment
    (both interpreters pre-decode, so they must agree), and syscalls
    landing mid-block (fallback path).
    """
    lines = ["main:"]
    for reg in REGS[:4]:
        lines.append(f" li {reg}, {draw(st.integers(0, 0xFFFF))}")
    lines.append(" addiu $s0, $sp, -256")  # memory scratch base
    n_loops = draw(st.integers(1, 3))
    for loop in range(n_loops):
        iters = draw(st.integers(1, 10))
        body_len = draw(st.integers(1, 12))  # mixed block lengths
        lines.append(f" li $s1, {iters}")
        lines.append(f"loop{loop}:")
        for _ in range(body_len):
            kind = draw(st.sampled_from(["r", "i", "mem", "memrun"]))
            rd = draw(st.sampled_from(REGS))
            rs = draw(st.sampled_from(REGS))
            if kind == "r":
                op = draw(st.sampled_from(_R_OPS))
                rt = draw(st.sampled_from(REGS))
                lines.append(f" {op} {rd}, {rs}, {rt}")
            elif kind == "i":
                op = draw(st.sampled_from(_I_OPS))
                imm = draw(st.integers(0, 0x7FFF))
                lines.append(f" {op} {rd}, {rs}, {imm}")
            elif kind == "mem":
                off = 4 * draw(st.integers(0, 60))
                if draw(st.booleans()):
                    lines.append(f" sw {rs}, {off}($s0)")
                else:
                    lines.append(f" lw {rd}, {off}($s0)")
            else:  # contiguous same-base lw/sw run
                op = draw(st.sampled_from(["sw", "lw"]))
                start = 4 * draw(st.integers(0, 32))
                for i in range(draw(st.integers(4, 6))):
                    reg = REGS[(draw(st.integers(0, 7)) + i) % len(REGS)]
                    lines.append(f" {op} {reg}, {start + 4 * i}($s0)")
        if draw(st.booleans()):  # forward branch: cold side exit
            rt = draw(st.sampled_from(REGS))
            lines.append(f" beq {rt}, {rt}, skip{loop}")
            lines.append(" addiu $t0, $t0, 1")  # dead under the always-taken beq
            lines.append(f"skip{loop}:")
        if draw(st.booleans()):  # syscall mid-stream: block split + fallback
            lines.append(" move $a0, $s1")
            lines.append(" li $v0, 1")
            lines.append(" syscall")
        if draw(st.booleans()):  # store adjacent to (into) the text segment
            lines.append(f" li $s2, {TEXT_BASE - 8}")
            lines.append(f" sw $s1, {draw(st.sampled_from([0, 4, 8, 12]))}($s2)")
        lines.append(" addiu $s1, $s1, -1")
        lines.append(f" bgtz $s1, loop{loop}")
    lines.append(" halt")
    return "\n".join(lines) + "\n"


@given(straight_line_program())
@settings(max_examples=40, deadline=None)
def test_random_programs_cross_check(case):
    source, _ops = case
    cross_check(assemble(source), max_steps=10_000)


@given(block_shaped_program())
@settings(max_examples=25, deadline=None)
def test_block_shaped_programs_blocks_lockstep(source):
    """Blocks tier vs reference, record-by-record, on loopy programs."""
    cross_check_blocks(assemble(source), max_steps=20_000)


@given(block_shaped_program())
@settings(max_examples=15, deadline=None)
def test_block_shaped_programs_three_way_parity(source):
    """reference x bound handlers x compiled blocks agree on trace,
    state, and output."""
    program = assemble(source)
    ref = Machine(program, dispatch="reference")
    stepper = Machine(program)
    blk = Machine(program, block_threshold=0)
    r_ref = list(ref.trace(20_000))
    r_step = []
    while not stepper.halted and len(r_step) < 20_000:
        r_step.append(stepper.step())
    r_blk = list(blk.trace(20_000))
    assert r_ref == r_step == r_blk
    assert ref.regs == stepper.regs == blk.regs
    assert ref.pc == stepper.pc == blk.pc
    assert ref.output == stepper.output == blk.output


@pytest.mark.parametrize("name", ["li", "vortex"])
def test_benchmark_slice_identical_trace_streams(name):
    """A real benchmark slice produces identical TraceRecord streams."""
    program = get_workload(name).build(iters=1)
    prod = Machine(program)
    gold = Machine(program, dispatch="reference")
    prod_records = list(prod.trace(5_000))
    gold_records = list(gold.trace(5_000))
    assert prod_records == gold_records
    assert prod.regs == gold.regs
    assert prod.pc == gold.pc
    assert prod.instret == gold.instret


def test_cross_check_covers_control_memory_and_syscalls():
    """The helper exercises branches, memory, mult/div and syscalls."""
    source = """
main:   li   $t0, 10
        li   $t1, 0
loop:   addu $t1, $t1, $t0
        mult $t1, $t0
        mflo $t2
        sw   $t2, 0($sp)
        lw   $t3, 0($sp)
        addiu $t0, $t0, -1
        bgtz $t0, loop
        move $a0, $t1
        li   $v0, 1
        syscall
        halt
"""
    retired = cross_check(assemble(source), max_steps=1_000)
    assert retired > 10


def test_divergence_is_reported():
    """A (deliberately) desynchronized pair raises DispatchDivergence."""
    program = assemble("main: li $t0, 1\n halt\n")
    prod = Machine(program)
    prod.regs[8] = 99  # corrupt one machine's state up front
    gold = Machine(program, dispatch="reference")
    with pytest.raises(DispatchDivergence):
        got = prod.step()
        want = gold.step_reference()
        if got != want:
            raise DispatchDivergence("streams diverged")
        raise AssertionError("corrupted state should have diverged")


def test_semantics_table_lists_exactly_the_isa():
    """The semantics table and the encoder know the same mnemonics: no
    instruction lacks a row, and no row is dead."""
    from repro.isa.encoding import ALL_MNEMONICS

    assert sorted(OPS) == sorted(ALL_MNEMONICS)


def test_unknown_mnemonic_faults_at_execute_time():
    handler = bind(Instruction("made-up-op"))
    machine = Machine(assemble("main: nop\n halt\n"))
    with pytest.raises(IllegalInstruction):
        handler(machine, True)


def test_fast_step_faults_match_reference():
    """PC faults raise the same IllegalInstruction either way."""
    for mode in (None, "reference"):
        machine = Machine(assemble("main: li $t0, 2\n jr $t0\n nop\n"), dispatch=mode)
        machine.step()
        machine.step()
        with pytest.raises(IllegalInstruction):
            machine.step()


def test_fast_step_after_halt_raises():
    machine = Machine(assemble("main: halt\n"))
    machine.run()
    assert machine.halted
    with pytest.raises(EmulatorError):
        machine.step()


def test_dispatch_env_selects_reference(monkeypatch):
    monkeypatch.setenv(DISPATCH_ENV, "reference")
    assert default_dispatch() == "reference"
    machine = Machine(assemble("main: nop\n halt\n"))
    assert machine.dispatch == "reference"
    assert machine._bound is None
    machine.run()
    assert machine.halted

    # Unset or empty selects the production tier.
    monkeypatch.delenv(DISPATCH_ENV)
    assert default_dispatch() == "blocks"
    monkeypatch.setenv(DISPATCH_ENV, "")
    assert default_dispatch() == "blocks"
    assert Machine(assemble("main: halt\n")).dispatch == "blocks"


@pytest.mark.parametrize("value", ["refrence", "ref", "slow", "fast", "compiled", "Reference"])
def test_dispatch_env_rejects_unknown_values(monkeypatch, value):
    """A misspelt tier must fail loudly, not run the production tier."""
    monkeypatch.setenv(DISPATCH_ENV, value)
    with pytest.raises(ValueError, match="'reference' or 'blocks'"):
        default_dispatch()
    with pytest.raises(ValueError, match="'reference' or 'blocks'"):
        Machine(assemble("main: halt\n"))


def test_fast_dispatch_argument_builds_the_production_tier():
    """``dispatch="fast"`` (the retired per-instruction tier's name) still
    builds a production machine; unknown names are rejected."""
    assert Machine(assemble("main: halt\n"), dispatch="fast").dispatch == "blocks"
    with pytest.raises(ValueError, match="'blocks' or 'reference'"):
        Machine(assemble("main: halt\n"), dispatch="ref")


def test_run_and_trace_agree_on_retired_count():
    """run() (no records) and trace() (records) retire identically."""
    program = get_workload("li").build(iters=1)
    runner = Machine(program)
    tracer = Machine(program)
    retired = runner.run(3_000)
    records = list(tracer.trace(3_000))
    assert retired == len(records) == 3_000
    assert runner.pc == tracer.pc
    assert runner.regs == tracer.regs
