"""Block-compiled execution tier: discovery, codegen, parity, faults.

The blocks tier (:mod:`repro.emulator.blocks`) must be architecturally
invisible: byte-identical traces, identical final state, identical
fault behaviour versus both its own pre-bound handlers and the golden
reference interpreter.  These tests exercise the machinery the
differential properties cannot see directly — profiling countdowns,
superblock side exits, word runs, replay-on-fault, the
per-program code cache, and the process-global stats.
"""

from __future__ import annotations

import gc

import pytest

from repro import context
from repro.core.config import baseline_config
from repro.emulator import blocks
from repro.emulator.blocks import DEFAULT_THRESHOLD, cross_check_blocks
from repro.emulator.machine import DISPATCH_ENV, Machine, default_dispatch
from repro.emulator.memory import AlignmentError
from repro.isa.assembler import assemble
from repro.isa.encoding import ALL_MNEMONICS
from repro.timing.sampling import WarmState
from repro.workloads import get_workload

LOOP = """
main:   li   $t0, 20
        li   $t1, 0
loop:   addu $t1, $t1, $t0
        addiu $t0, $t0, -1
        bgtz $t0, loop
        halt
"""


# ------------------------------------------------------------------ parity

@pytest.mark.parametrize("name", ["li", "vortex"])
def test_benchmark_slice_blocks_lockstep(name):
    """Record-by-record lockstep vs the golden reference."""
    program = get_workload(name).build(iters=1)
    assert cross_check_blocks(program, max_steps=5_000) == 5_000


def test_three_way_trace_streams_identical():
    """reference x default threshold x compile-on-first-entry produce
    byte-identical traces."""
    program = get_workload("li").build(iters=1)
    ref = Machine(program, dispatch="reference")
    prod = Machine(program)
    blk = Machine(program, dispatch="blocks", block_threshold=0)
    r_ref = list(ref.trace(4_000))
    r_prod = list(prod.trace(4_000))
    r_blk = list(blk.trace(4_000))
    assert r_ref == r_prod == r_blk
    assert ref.regs == prod.regs == blk.regs
    assert ref.pc == prod.pc == blk.pc
    assert ref.instret == prod.instret == blk.instret
    assert prod._engine.threshold == DEFAULT_THRESHOLD


def test_blocks_run_and_trace_agree_on_retired_count():
    """run() (chain loop) and trace() retire identically, mid-block cap."""
    program = get_workload("li").build(iters=1)
    runner = Machine(program, dispatch="blocks", block_threshold=0)
    tracer = Machine(program, dispatch="blocks", block_threshold=0)
    retired = runner.run(3_000)
    records = list(tracer.trace(3_000))
    assert retired == len(records) == 3_000
    assert runner.pc == tracer.pc
    assert runner.regs == tracer.regs
    assert runner.instret == tracer.instret


def test_max_steps_exact_when_budget_lands_mid_block():
    """A step budget smaller than the hot block retires per-instruction."""
    program = assemble(LOOP)
    for budget in (1, 2, 5, 7):
        m = Machine(program, dispatch="blocks", block_threshold=0)
        ref = Machine(program, dispatch="reference")
        assert m.run(budget) == ref.run(budget) == budget
        assert m.regs == ref.regs and m.pc == ref.pc


def test_run_to_halt_matches_reference():
    program = assemble(LOOP)
    m = Machine(program, dispatch="blocks", block_threshold=0)
    ref = Machine(program, dispatch="reference")
    m.run()
    ref.run()
    assert m.halted and ref.halted
    assert m.regs == ref.regs and m.instret == ref.instret


# ------------------------------------------------- per-mnemonic parity matrix

_KERNEL = """
        .data
buf:    .word 0x80ff7f01, 0x7f0180ff, 0xdeadbeef, 0x00008000
        .word 0xffff0000, 0x12345678, 0x80000000, 0x0000007f
        .text
main:   la    $s0, buf
        li    $t1, 0x7ffffff0
        li    $t2, -5
        li.s  $f2, -1.5
        li.s  $f4, 2.0
        li.s  $f12, 0.75
        mtc1  $0, $f14
        li    $s1, 12
loop:   andi  $t0, $s1, 3          # 0..3: zero once every four iterations
        sll   $t4, $t0, 2
        addu  $t5, $s0, $t4        # word-aligned pointer into buf
        mtc1  $t2, $f6             # raw bit patterns: NaNs, denormals
        add.s $f2, $f2, $f12       # sweeps $f2 across $f4
{body}
        addiu $t1, $t1, 0x1357
        xor   $t2, $t2, $t1
        addiu $s1, $s1, -1
        bgtz  $s1, loop
        halt
func:   addiu $v1, $v1, 3
        jr    $ra
func2:  addiu $v1, $v1, 5
        jr    $t8
"""

_R3 = "{op} $t3, $t1, $t2\n{op} $t6, $t2, $t0\n{op} $0, $t1, $t2"
_RV = "{op} $t3, $t2, $t1\n{op} $t6, $t1, $t0"
_RC = "{op} $t3, $t2, 7\n{op} $t6, $t1, 31\n{op} $t7, $t2, 0"
_IS = "{op} $t3, $t2, -3\n{op} $t6, $t1, 0x7ff0\n{op} $0, $t1, 1"
_IU = "{op} $t3, $t2, 0xff0f\n{op} $t6, $t1, 0x8001"
_LB = "{op} $t3, 1($t5)\n{op} $t6, 3($t5)\n{op} $t7, 0($t5)\n{op} $0, 2($t5)"
_LH = "{op} $t3, 2($t5)\n{op} $t6, 0($t5)\n{op} $t7, 6($t5)\n{op} $0, 4($t5)"
_BR2 = ("{op} $t0, $0, skip\naddiu $t7, $t7, 1\n"
        "skip: {op} $t2, $t1, skip2\naddiu $t7, $t7, 2\nskip2:")
_BR1 = "{op} $t2, skip\naddiu $t7, $t7, 1\nskip: {op} $t0, skip2\naddiu $t7, $t7, 2\nskip2:"
_BC1 = ("c.lt.s $f2, $f4\n{op} skip\naddiu $t7, $t7, 1\n"
        "skip: c.eq.s $f6, $f6\n{op} skip2\naddiu $t7, $t7, 2\nskip2:")
_MD = "{op} $t1, $t2\nmflo $t3\nmfhi $t6\n{op} $t2, $t0\nmflo $t7\nmfhi $a0"
_FP3 = "{op} $f8, $f2, $f4\n{op} $f10, $f6, $f2\n{op} $f16, $f2, $f14\n{op} $f18, $f14, $f14"
_FP2 = "{op} $f8, $f2\n{op} $f10, $f6\n{op} $f16, $f14"
_FPC = "{op} $f2, $f4\nbc1t skip\naddiu $t7, $t7, 1\nskip: {op} $f6, $f2\n{op} $f6, $f6"

#: Loop-body snippet per compilable mnemonic ({op} is the mnemonic); a
#: mnemonic added to the ISA without one fails its parity case.
_BODIES = {
    **dict.fromkeys(["add", "addu", "sub", "subu", "and", "or", "xor", "nor", "slt", "sltu"], _R3),
    **dict.fromkeys(["sllv", "srlv", "srav"], _RV),
    **dict.fromkeys(["sll", "srl", "sra"], _RC),
    **dict.fromkeys(["addi", "addiu", "slti", "sltiu"], _IS),
    **dict.fromkeys(["andi", "ori", "xori"], _IU),
    "lui": "lui $t3, 0x8001\nlui $t6, 0x7fff\naddu $t7, $t3, $t1",
    "lw": ("lw $t3, 0($t5)\nlw $t6, 4($t5)\nlw $0, 8($t5)\n"
           "lw $a0, 0($s0)\nlw $a1, 4($s0)\nlw $a2, 8($s0)\nlw $a3, 12($s0)"),
    **dict.fromkeys(["lb", "lbu"], _LB),
    **dict.fromkeys(["lh", "lhu"], _LH),
    "lwc1": "lwc1 $f8, 0($t5)\nlwc1 $f10, 4($t5)",
    "sw": ("sw $t1, 0($t5)\nsw $t2, 4($t5)\nlw $t3, 8($t5)\naddiu $t3, $t3, 1\nsw $t3, 8($t5)\n"
           "sw $t1, 0($s0)\nsw $t2, 4($s0)\nsw $t3, 8($s0)\nsw $t0, 12($s0)"),
    "sh": "sh $t1, 2($t5)\nsh $t2, 4($t5)\nlhu $t3, 2($t5)",
    "sb": "sb $t1, 1($t5)\nsb $t2, 6($t5)\nlbu $t3, 1($t5)",
    "swc1": "swc1 $f6, 4($t5)\nswc1 $f2, 8($t5)\nlw $t3, 4($t5)",
    **dict.fromkeys(["beq", "bne"], _BR2),
    **dict.fromkeys(["blez", "bgtz", "bltz", "bgez"], _BR1),
    **dict.fromkeys(["bc1t", "bc1f"], _BC1),
    "j": "j skip\naddiu $t7, $t7, 1\nskip:",
    "jal": "jal func\naddu $t3, $v1, $t1",
    "jr": "la $t9, skip\njr $t9\naddiu $t7, $t7, 1\nskip: jal func",
    "jalr": "la $t9, func\njalr $t9\nla $t9, func2\njalr $t8, $t9",
    **dict.fromkeys(["mult", "multu", "div", "divu"], _MD),
    **dict.fromkeys(["mfhi", "mflo"], "mult $t1, $t2\n{op} $t3\n{op} $0"),
    **dict.fromkeys(["mthi", "mtlo"], "{op} $t1\nmfhi $t3\nmflo $t6"),
    **dict.fromkeys(["add.s", "sub.s", "mul.s", "div.s"], _FP3),
    **dict.fromkeys(["sqrt.s", "abs.s", "mov.s", "neg.s", "cvt.w.s", "cvt.s.w"], _FP2),
    **dict.fromkeys(["c.eq.s", "c.lt.s", "c.le.s"], _FPC),
    "mfc1": "mfc1 $t3, $f2\nmfc1 $t6, $f6\nmfc1 $0, $f4",
    "mtc1": "mtc1 $t1, $f8\nmtc1 $0, $f10",
}

#: Blocks never compile the system instructions.
_COMPILABLE = sorted(ALL_MNEMONICS - {"syscall", "break"})


def _state(machine):
    return (
        list(machine.regs), machine.pc, machine.instret, machine.halted,
        bytes(machine.output),
        {page: bytes(data) for page, data in machine.memory._pages.items()},
    )


def _warm_contents(warm):
    """Functional warm state; BTB lookups/hits are excluded by design
    (warm blocks call only ``btb.update``)."""
    pred, hier = warm.predictor, warm.hierarchy
    return (
        bytes(pred.gshare.table), pred.gshare.history,
        pred.btb._sets, pred.ras._stack, pred.ras._top, pred.ras._pos,
        hier.l1i._sets, hier.l1d._sets, hier.l2._sets,
    )


def _compiled_mnemonics(machine):
    return {
        inst.mnemonic
        for block in machine._engine._extents.values() if block is not None
        for _, inst, _ in block.items
    }


@pytest.mark.parametrize("mnemonic", _COMPILABLE)
def test_per_mnemonic_parity(mnemonic):
    """step_reference x step() x compiled trace/run/warm bodies agree on
    records and final state for a loop containing *mnemonic*, and warm
    bodies train what WarmState.observe trains from reference records."""
    body = _BODIES[mnemonic].format(op=mnemonic)
    program = assemble(_KERNEL.format(body="\n".join(f"        {ln}" for ln in body.split("\n"))))
    ref = Machine(program, dispatch="reference")
    want = list(ref.trace(10_000))
    assert ref.halted
    stepper = Machine(program)
    assert [stepper.step() for _ in want] == want
    tracer = Machine(program, block_threshold=0)
    assert list(tracer.trace(10_000)) == want
    runner = Machine(program, block_threshold=0)
    runner.run(10_000)
    warm = WarmState(baseline_config())
    warmer = Machine(program, block_threshold=0)
    warmer.attach_warm_sink(warm.hierarchy, warm.predictor)
    warmer.run_warm(10_000)
    for machine in (stepper, tracer, runner, warmer):
        assert _state(machine) == _state(ref)
    for machine in (tracer, runner, warmer):
        assert mnemonic in _compiled_mnemonics(machine)
    oracle = WarmState(baseline_config())
    for record in want:
        oracle.observe(record)
    assert _warm_contents(warm) == _warm_contents(oracle)


# ------------------------------------------------------ superblocks, word runs

def test_tight_loop_compiles_as_superblock():
    m = Machine(assemble(LOOP), dispatch="blocks", block_threshold=0)
    m.run()
    stats = blocks.stats()
    assert stats["blocks_compiled"] >= 1
    assert stats["superblocks"] >= 1  # the backward bgtz unrolled
    assert stats["block_insts"] > 0
    assert stats["replays"] == 0


# Adjacent same-base word runs, each one compiled block per iteration:
# a store run and a load run that straddle a 4 KiB page boundary, the
# first iteration's stores allocating both pages, then a load run that
# reads into a page nothing has touched.
_WORD_RUNS = """
main:   addiu $t0, $sp, -8192
        li    $t9, -4096
        and   $t0, $t0, $t9
        addiu $t0, $t0, -8         # 0..12($t0) straddles a page boundary
        li    $s1, 6
        li    $t1, 0x1234
loop:   addiu $t1, $t1, 0x1357
        sll   $t2, $t1, 7
        xor   $t3, $t2, $t1
        nor   $t4, $t3, $t2
        sw    $t1, 0($t0)
        sw    $t2, 4($t0)
        sw    $t3, 8($t0)
        sw    $t4, 12($t0)
        lw    $t5, 0($t0)
        lw    $t6, 4($t0)
        lw    $t7, 8($t0)
        lw    $t8, 12($t0)
        lw    $a0, 4096($t0)       # the upper half reads an unmapped page
        lw    $a1, 4100($t0)
        lw    $a2, 4104($t0)
        lw    $a3, 4108($t0)
        addu  $v1, $v1, $t8
        addiu $s1, $s1, -1
        bgtz  $s1, loop
        halt
"""


def test_word_runs_across_a_page_boundary_lockstep():
    """Word runs that cross a page take the scalar path in every
    variant: the trace variant in lockstep with the reference, the run
    variant to the reference's final state and memory."""
    program = assemble(_WORD_RUNS)
    ref = Machine(program, dispatch="reference")
    want = list(ref.trace(1_000))
    assert ref.halted
    assert cross_check_blocks(program, max_steps=1_000) == len(want)
    runner = Machine(program, block_threshold=0)
    runner.run(1_000)
    assert _state(runner) == _state(ref)
    assert {"lw", "sw"} <= _compiled_mnemonics(runner)
    assert blocks.stats()["replays"] == 0
    pages = sorted(ref.memory._pages)
    assert any(b == a + 1 for a, b in zip(pages, pages[1:]))


def _warmed_and_observed(source):
    """*source* warmed through compiled warm bodies, and the same
    warming from the reference trace by ``WarmState.observe``."""
    program = assemble(source)
    ref = Machine(program, dispatch="reference")
    want = list(ref.trace(20_000))
    assert ref.halted
    warm = WarmState(baseline_config())
    warmer = Machine(program, block_threshold=0)
    warmer.attach_warm_sink(warm.hierarchy, warm.predictor)
    warmer.run_warm(20_000)
    assert _state(warmer) == _state(ref)
    oracle = WarmState(baseline_config())
    for record in want:
        oracle.observe(record)
    assert _warm_contents(warm) == _warm_contents(oracle)
    return warmer, oracle


def test_warm_word_runs_train_what_observe_trains():
    """The warm variant touches one data-cache access per word of a run,
    as WarmState.observe does for the reference records."""
    warmer, _ = _warmed_and_observed(_WORD_RUNS)
    assert {"lw", "sw"} <= _compiled_mnemonics(warmer)


#: Five lines 16 KiB apart (A-E) share one set of the L1D (256 sets of
#: 64-byte lines, four ways), and no access repeats the line before it:
#: none hits the MRU way.  An iteration hits a middle way (A), the LRU
#: way (A after A-D, then C) and, last, the way after the MRU (E); its
#: misses evict lines and reach the L2.  An LRU set's final state is its
#: last four distinct lines, which can hide a wrong step early on, so
#: the kernel runs for several iteration counts.
_SET_CONFLICTS = """
main:   addiu $s0, $sp, -4096
        li    $t9, -16384
        addu  $s3, $s0, $t9
        addu  $s4, $s3, $t9
        addu  $s5, $s4, $t9
        addu  $s6, $s5, $t9
        li    $s1, {iterations}
loop:   lw    $t1, 0($s0)
        sw    $t1, 4($s3)
        lw    $t2, 8($s4)
        lw    $t3, 12($s5)
        lw    $t4, 0($s0)
        sw    $t4, 0($s6)
        lw    $t5, 4($s4)
        lw    $t6, 8($s6)
        addiu $s1, $s1, -1
        bgtz  $s1, loop
        halt
"""

#: A branch taken for 64 iterations, then not taken for 64, and so on:
#: its gshare counters saturate in both directions and stay there.
_BRANCH_RUNS = """
main:   li    $s1, 320
        li    $s2, 0
loop:   andi  $t0, $s1, 64
        beq   $t0, $0, skip
        addiu $s2, $s2, 1
skip:   addiu $s1, $s1, -1
        bgtz  $s1, loop
        halt
"""


@pytest.mark.parametrize("iterations", [1, 2, 3, 40])
def test_warm_data_accesses_off_the_mru_way_train_what_observe_trains(iterations):
    """The inline MRU test passes every other access to the hierarchy:
    LRU reorders, evictions and L2 fills match the reference's."""
    warmer, oracle = _warmed_and_observed(_SET_CONFLICTS.format(iterations=iterations))
    assert {"lw", "sw"} <= _compiled_mnemonics(warmer)
    l1d, l2 = oracle.hierarchy.l1d, oracle.hierarchy.l2
    base = warmer.regs[16]  # $s0
    assert len(l1d.set_tags(base)) == 4  # the set filled, then evicted
    lines = [base - 16384 * k for k in range(5)]
    assert all(l2.probe(addr) for addr in lines)
    assert sum(l1d.probe(addr) for addr in lines) == 4


def test_warm_branches_at_saturated_counters_train_what_observe_trains():
    """The inline gshare update holds saturated counters where
    ``GsharePredictor.update`` does, at both ends."""
    warmer, oracle = _warmed_and_observed(_BRANCH_RUNS)
    assert "beq" in _compiled_mnemonics(warmer)
    assert {0, 3} <= set(oracle.predictor.gshare.table)


def test_syscall_splits_blocks_and_stays_in_lockstep():
    source = """
main:   li   $t0, 3
loop:   move $a0, $t0
        li   $v0, 1
        syscall
        addiu $t0, $t0, -1
        bgtz $t0, loop
        halt
"""
    program = assemble(source)
    cross_check_blocks(program, max_steps=1_000)
    m = Machine(program, dispatch="blocks", block_threshold=0)
    ref = Machine(program, dispatch="reference")
    m.run()
    ref.run()
    assert m.output == ref.output and m.regs == ref.regs


# ------------------------------------------------------------------- faults

_FAULT_LOAD = """
main:   li   $t0, 3
        li   $t1, 7
        addu $t2, $t0, $t1
        lw   $t3, 0($t0)
        addu $t4, $t2, $t1
        halt
"""

_FAULT_STORE = """
main:   li   $t0, 2
        li   $t1, 7
        addu $t2, $t0, $t1
        sw   $t1, 0($t0)
        halt
"""

# Adjacent same-base word runs with a misaligned word mid-run: the
# words before it retire, and the fault leaves their registers/memory.
_FAULT_LOAD_RUN = """
main:   addiu $t0, $sp, -256
        li    $t1, 7
        sw    $t1, 0($t0)
        sw    $t0, 4($t0)
        lw    $t5, 0($t0)
        lw    $t6, 4($t0)
        lw    $t7, 10($t0)
        lw    $t8, 12($t0)
        halt
"""

_FAULT_STORE_RUN = """
main:   addiu $t0, $sp, -256
        li    $t1, 7
        sw    $t1, 0($t0)
        sw    $t0, 4($t0)
        sw    $t1, 10($t0)
        sw    $t1, 12($t0)
        halt
"""

# A read-modify-write of one word inside an unrolled superblock that
# later faults: re-executing the block from its entry would apply the
# earlier increments twice.
_FAULT_RMW = """
main:   addiu $s0, $sp, -256
        li    $t5, 5
        sw    $t5, 0($s0)
        li    $s1, 20
        li    $v0, 1
        move  $a0, $0
        syscall
loop:   lw    $t0, 0($s0)
        addiu $t0, $t0, 1
        sw    $t0, 0($s0)
        addiu $s1, $s1, -1
        sltiu $t4, $s1, 2
        sll   $t4, $t4, 1
        addu  $t3, $s0, $t4
        lw    $t2, 0($t3)
        bgtz  $s1, loop
        halt
"""


def _run_to_fault(machine, method):
    """Drive *machine* until it faults; returns (records, message)."""
    records = []
    with pytest.raises(AlignmentError) as err:
        if method == "trace":
            for record in machine.trace():
                records.append(record)
        else:
            machine.run()
    return records, str(err.value)


def _memory(machine):
    return {page: bytes(data) for page, data in machine.memory._pages.items()}


@pytest.mark.parametrize("method", ["run", "trace"])
@pytest.mark.parametrize(
    "source, threshold",
    [
        pytest.param(_FAULT_LOAD, 0, id="misaligned-load"),
        pytest.param(_FAULT_STORE, 0, id="misaligned-store"),
        pytest.param(_FAULT_LOAD_RUN, 0, id="misaligned-word-mid-load-run"),
        pytest.param(_FAULT_STORE_RUN, 0, id="misaligned-word-mid-store-run"),
        pytest.param(_FAULT_RMW, None, id="read-modify-write-default-threshold"),
        pytest.param(_FAULT_RMW, 0, id="read-modify-write-threshold-0"),
    ],
)
def test_fault_mid_block_leaves_reference_state(source, threshold, method):
    """A fault inside a compiled body leaves exactly the reference's
    registers, PC, instret, memory and trace stream."""
    program = assemble(source)
    ref = Machine(program, dispatch="reference")
    want_records, want_msg = _run_to_fault(ref, "trace")
    m = Machine(program, block_threshold=threshold)
    got_records, got_msg = _run_to_fault(m, method)
    assert got_msg == want_msg
    if method == "trace":
        assert got_records == want_records
    assert m.regs == ref.regs
    assert m.pc == ref.pc
    assert m.instret == ref.instret
    assert _memory(m) == _memory(ref)
    assert blocks.stats()["replays"] == 1


# ------------------------------------------------------- profiling threshold

def test_threshold_gates_compilation():
    program = assemble(LOOP)
    # Threshold far above the loop count: nothing ever compiles.
    m = Machine(program, dispatch="blocks", block_threshold=1000)
    m.run()
    cold = blocks.stats()
    assert cold["blocks_compiled"] == 0
    assert cold["block_insts"] == 0
    assert cold["fallback_insts"] == m.instret
    # Threshold 0: compiles on first entry.
    context.reset()
    m = Machine(assemble(LOOP), dispatch="blocks", block_threshold=0)
    m.run()
    hot = blocks.stats()
    assert hot["blocks_compiled"] >= 1
    assert hot["block_insts"] > 0


# ------------------------------------------------------------- code cache

def test_code_objects_are_shared_across_machines_and_die_with_program():
    program = assemble(LOOP)
    m1 = Machine(program, dispatch="blocks", block_threshold=0)
    m1.run()
    key = id(program)
    assert blocks._CODE_CACHE.get(key), "first machine populated the cache"
    cached = set(blocks._CODE_CACHE[key])
    m2 = Machine(program, dispatch="blocks", block_threshold=0)
    m2.run()
    assert set(blocks._CODE_CACHE[key]) >= cached  # reused, not rebuilt
    assert m1.regs == m2.regs and m1.instret == m2.instret
    del m1, m2
    del program
    gc.collect()
    assert key not in blocks._CODE_CACHE  # finalizer dropped the entry


# ---------------------------------------------------------------- stats

def test_stats_reset_and_accumulate():
    """The counters live in the run context: they accumulate across
    machines and a fresh context starts them from zero."""
    zero = blocks.stats()
    assert zero["blocks_compiled"] == 0 and zero["block_insts"] == 0
    m = Machine(assemble(LOOP), dispatch="blocks", block_threshold=0)
    m.run()
    after = blocks.stats()
    assert after["block_execs"] > 0
    assert after["block_insts"] + after["fallback_insts"] == m.instret
    Machine(assemble(LOOP), dispatch="blocks", block_threshold=0).run()
    again = blocks.stats()
    assert again["block_insts"] + again["fallback_insts"] == 2 * m.instret
    assert again["blocks_compiled"] == 2 * after["blocks_compiled"]
    context.reset()
    assert blocks.stats() == zero


# ------------------------------------------------------- mode plumbing

def test_dispatch_env_and_override(monkeypatch):
    monkeypatch.setenv(DISPATCH_ENV, "blocks")
    assert default_dispatch() == "blocks"
    machine = Machine(assemble("main: nop\n halt\n"))
    assert machine.dispatch == "blocks" and machine._engine is not None
    monkeypatch.setenv(DISPATCH_ENV, "reference")
    machine = Machine(assemble("main: nop\n halt\n"))
    assert machine.dispatch == "reference" and machine._engine is None
