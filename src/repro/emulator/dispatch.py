"""Pre-bound instruction dispatch: the blocks tier's per-instruction layer.

The reference interpreter (:meth:`~repro.emulator.machine.Machine.step_reference`)
re-compares the mnemonic string against ~50 ``elif`` branches for every
retired instruction.  This module removes that cost entirely: at decode
time each :class:`~repro.isa.instructions.Instruction` is bound **once**
to a specialized closure (selected from :data:`BINDERS`, a handler table
populated at import), with the register numbers, immediates and branch
offsets it needs captured as plain Python ints.  Executing an
instruction is then a single indirect call — threaded code, zero string
comparisons, no per-step field lookups on the ``Instruction``.

Every handler takes ``(machine, emit)`` and must reproduce the golden
reference bit-for-bit: same register writes, same ``TraceRecord``
fields, same exception behavior.  When ``emit`` is false the handler
skips building the ``TraceRecord`` — the big win for
:meth:`Machine.run`, which retires instructions without consuming
records.  The block-compiled tier (:mod:`repro.emulator.blocks`) runs
these handlers for :meth:`Machine.step`, cold code, syscalls and the
per-instruction replay of a faulting block.  :func:`cross_check` is the
differential harness that keeps them honest against the reference (the
fault-injection campaign uses the same golden-model idiom, see
:mod:`repro.harness.faults`).
"""

from __future__ import annotations

import math
import struct

from repro.emulator.syscalls import do_syscall
from repro.emulator.trace import TraceRecord
from repro.harness.errors import EmulatorError
from repro.isa.registers import FCC, FP_BASE, HI, LO

_M = 0xFFFFFFFF


# ------------------------------------------------------------ scalar helpers
#
# These lived in repro.emulator.machine; they are defined here so the
# machine can import the dispatch table without a circular import, and
# re-exported from machine for compatibility.

def f32_from_bits(bits: int) -> float:
    """Reinterpret a 32-bit pattern as an IEEE single."""
    return struct.unpack("<f", struct.pack("<I", bits & _M))[0]


def bits_from_f32(value: float) -> int:
    """Round a Python float to IEEE single and return its bit pattern."""
    try:
        return struct.unpack("<I", struct.pack("<f", value))[0]
    except (OverflowError, ValueError):
        # Magnitude beyond float32 range rounds to a signed infinity.
        inf = math.copysign(math.inf, value)
        return struct.unpack("<I", struct.pack("<f", inf))[0]


def to_signed(value: int) -> int:
    """Interpret a 32-bit unsigned image as a signed int."""
    return value - 0x1_0000_0000 if value & 0x8000_0000 else value


class DispatchDivergence(EmulatorError):
    """Fast dispatch disagreed with the golden reference interpreter."""


#: mnemonic → binder; a binder takes the decoded Instruction and returns
#: the specialized handler ``h(machine, emit) -> TraceRecord | None``.
BINDERS: dict = {}


def _binder(*names):
    def register(fn):
        for name in names:
            BINDERS[name] = fn
        return fn
    return register


# ------------------------------------------------------- hot hand-specialized

@_binder("addu", "add")
def _b_add(inst):
    rs, rt, rd = inst.rs, inst.rt, inst.rd

    def h(m, emit):
        regs = m.regs
        pc = m.pc
        a = regs[rs]
        b = regs[rt]
        r = (a + b) & _M
        if rd:
            regs[rd] = r
        npc = (pc + 4) & _M
        m.pc = npc
        m.instret += 1
        if emit:
            return TraceRecord(pc, inst, a, b,
                               r, -1, False, npc)
        return None
    return h


@_binder("addiu", "addi")
def _b_addiu(inst):
    rs, rt, imm = inst.rs, inst.rt, inst.imm

    def h(m, emit):
        regs = m.regs
        pc = m.pc
        a = regs[rs]
        b = regs[rt]
        r = (a + imm) & _M
        if rt:
            regs[rt] = r
        npc = (pc + 4) & _M
        m.pc = npc
        m.instret += 1
        if emit:
            return TraceRecord(pc, inst, a, b,
                               r, -1, False, npc)
        return None
    return h


@_binder("lw")
def _b_lw(inst):
    rs, rt, imm = inst.rs, inst.rt, inst.imm

    def h(m, emit):
        regs = m.regs
        pc = m.pc
        a = regs[rs]
        b = regs[rt]
        addr = (a + imm) & _M
        r = m.memory.read_word(addr)
        if rt:
            regs[rt] = r
        npc = (pc + 4) & _M
        m.pc = npc
        m.instret += 1
        if emit:
            return TraceRecord(pc, inst, a, b,
                               r, addr, False, npc)
        return None
    return h


@_binder("sw")
def _b_sw(inst):
    rs, rt, imm = inst.rs, inst.rt, inst.imm

    def h(m, emit):
        regs = m.regs
        pc = m.pc
        a = regs[rs]
        b = regs[rt]
        addr = (a + imm) & _M
        m.memory.write_word(addr, b)
        npc = (pc + 4) & _M
        m.pc = npc
        m.instret += 1
        if emit:
            return TraceRecord(pc, inst, a, b,
                               b, addr, False, npc)
        return None
    return h


@_binder("beq")
def _b_beq(inst):
    rs, rt = inst.rs, inst.rt
    off = inst.imm << 2

    def h(m, emit):
        regs = m.regs
        pc = m.pc
        a = regs[rs]
        b = regs[rt]
        taken = a == b
        npc = (pc + 4 + off) & _M if taken else (pc + 4) & _M
        m.pc = npc
        m.instret += 1
        if emit:
            return TraceRecord(pc, inst, a, b,
                               0, -1, taken, npc)
        return None
    return h


@_binder("bne")
def _b_bne(inst):
    rs, rt = inst.rs, inst.rt
    off = inst.imm << 2

    def h(m, emit):
        regs = m.regs
        pc = m.pc
        a = regs[rs]
        b = regs[rt]
        taken = a != b
        npc = (pc + 4 + off) & _M if taken else (pc + 4) & _M
        m.pc = npc
        m.instret += 1
        if emit:
            return TraceRecord(pc, inst, a, b,
                               0, -1, taken, npc)
        return None
    return h


# ------------------------------------------------------------- ALU factories

def _bind_r3(fn):
    """R-format ALU: rd = fn(rs_val, rt_val)."""
    def binder(inst):
        rs, rt, rd = inst.rs, inst.rt, inst.rd

        def h(m, emit):
            regs = m.regs
            pc = m.pc
            a = regs[rs]
            b = regs[rt]
            r = fn(a, b)
            if rd:
                regs[rd] = r
            npc = (pc + 4) & _M
            m.pc = npc
            m.instret += 1
            if emit:
                return TraceRecord(pc, inst, a, b,
                                   r, -1, False, npc)
            return None
        return h
    return binder


BINDERS["subu"] = BINDERS["sub"] = _bind_r3(lambda a, b: (a - b) & _M)
BINDERS["and"] = _bind_r3(lambda a, b: a & b)
BINDERS["or"] = _bind_r3(lambda a, b: a | b)
BINDERS["xor"] = _bind_r3(lambda a, b: a ^ b)
BINDERS["nor"] = _bind_r3(lambda a, b: ~(a | b) & _M)
BINDERS["slt"] = _bind_r3(lambda a, b: 1 if to_signed(a) < to_signed(b) else 0)
BINDERS["sltu"] = _bind_r3(lambda a, b: 1 if a < b else 0)
BINDERS["sllv"] = _bind_r3(lambda a, b: (b << (a & 31)) & _M)
BINDERS["srlv"] = _bind_r3(lambda a, b: b >> (a & 31))
BINDERS["srav"] = _bind_r3(lambda a, b: (to_signed(b) >> (a & 31)) & _M)


def _bind_imm(fn):
    """I-format ALU: rt = fn(rs_val, imm)."""
    def binder(inst):
        rs, rt, imm = inst.rs, inst.rt, inst.imm

        def h(m, emit):
            regs = m.regs
            pc = m.pc
            a = regs[rs]
            b = regs[rt]
            r = fn(a, imm)
            if rt:
                regs[rt] = r
            npc = (pc + 4) & _M
            m.pc = npc
            m.instret += 1
            if emit:
                return TraceRecord(pc, inst, a, b,
                                   r, -1, False, npc)
            return None
        return h
    return binder


BINDERS["andi"] = _bind_imm(lambda a, i: a & (i & 0xFFFF))
BINDERS["ori"] = _bind_imm(lambda a, i: a | (i & 0xFFFF))
BINDERS["xori"] = _bind_imm(lambda a, i: a ^ (i & 0xFFFF))
BINDERS["slti"] = _bind_imm(lambda a, i: 1 if to_signed(a) < i else 0)
BINDERS["sltiu"] = _bind_imm(lambda a, i: 1 if a < (i & _M) else 0)
BINDERS["lui"] = _bind_imm(lambda a, i: (i & 0xFFFF) << 16)


def _bind_shift(fn):
    """Constant shift: rd = fn(rt_val, shamt)."""
    def binder(inst):
        rs, rt, rd, shamt = inst.rs, inst.rt, inst.rd, inst.shamt

        def h(m, emit):
            regs = m.regs
            pc = m.pc
            a = regs[rs]
            b = regs[rt]
            r = fn(b, shamt)
            if rd:
                regs[rd] = r
            npc = (pc + 4) & _M
            m.pc = npc
            m.instret += 1
            if emit:
                return TraceRecord(pc, inst, a, b,
                                   r, -1, False, npc)
            return None
        return h
    return binder


BINDERS["sll"] = _bind_shift(lambda b, s: (b << s) & _M)
BINDERS["srl"] = _bind_shift(lambda b, s: b >> s)
BINDERS["sra"] = _bind_shift(lambda b, s: (to_signed(b) >> s) & _M)


# ------------------------------------------------------------------- memory

def _bind_load(fn):
    """Sub-word load: rt = fn(memory, addr)."""
    def binder(inst):
        rs, rt, imm = inst.rs, inst.rt, inst.imm

        def h(m, emit):
            regs = m.regs
            pc = m.pc
            a = regs[rs]
            b = regs[rt]
            addr = (a + imm) & _M
            r = fn(m.memory, addr)
            if rt:
                regs[rt] = r
            npc = (pc + 4) & _M
            m.pc = npc
            m.instret += 1
            if emit:
                return TraceRecord(pc, inst, a, b,
                                   r, addr, False, npc)
            return None
        return h
    return binder


def _lb(mem, addr):
    b = mem.read_byte(addr)
    return (b - 0x100 if b & 0x80 else b) & _M


def _lh(mem, addr):
    h = mem.read_half(addr)
    return (h - 0x10000 if h & 0x8000 else h) & _M


BINDERS["lb"] = _bind_load(_lb)
BINDERS["lbu"] = _bind_load(lambda mem, addr: mem.read_byte(addr))
BINDERS["lh"] = _bind_load(_lh)
BINDERS["lhu"] = _bind_load(lambda mem, addr: mem.read_half(addr))


def _bind_store(width_mask, writer):
    """Sub-word store: writer(memory, addr, rt_val); result is the
    stored image masked to the access width."""
    def binder(inst):
        rs, rt, imm = inst.rs, inst.rt, inst.imm

        def h(m, emit):
            regs = m.regs
            pc = m.pc
            a = regs[rs]
            b = regs[rt]
            addr = (a + imm) & _M
            writer(m.memory, addr, b)
            npc = (pc + 4) & _M
            m.pc = npc
            m.instret += 1
            if emit:
                return TraceRecord(pc, inst, a, b,
                                   b & width_mask, addr, False, npc)
            return None
        return h
    return binder


BINDERS["sb"] = _bind_store(0xFF, lambda mem, addr, v: mem.write_byte(addr, v))
BINDERS["sh"] = _bind_store(0xFFFF, lambda mem, addr, v: mem.write_half(addr, v))


@_binder("lwc1")
def _b_lwc1(inst):
    rs, rt, imm = inst.rs, inst.rt, inst.imm
    ft = FP_BASE + inst.rt

    def h(m, emit):
        regs = m.regs
        pc = m.pc
        a = regs[rs]
        b = regs[rt]
        addr = (a + imm) & _M
        r = m.memory.read_word(addr)
        regs[ft] = r
        npc = (pc + 4) & _M
        m.pc = npc
        m.instret += 1
        if emit:
            return TraceRecord(pc, inst, a, b,
                               r, addr, False, npc)
        return None
    return h


@_binder("swc1")
def _b_swc1(inst):
    rs, rt, imm = inst.rs, inst.rt, inst.imm
    ft = FP_BASE + inst.rt

    def h(m, emit):
        regs = m.regs
        pc = m.pc
        a = regs[rs]
        b = regs[rt]
        addr = (a + imm) & _M
        r = regs[ft]
        m.memory.write_word(addr, r)
        npc = (pc + 4) & _M
        m.pc = npc
        m.instret += 1
        if emit:
            return TraceRecord(pc, inst, a, b,
                               r, addr, False, npc)
        return None
    return h


# ----------------------------------------------------------- control flow

def _bind_branch1(cmp):
    """One-source branch: taken = cmp(signed rs_val)."""
    def binder(inst):
        rs, rt = inst.rs, inst.rt
        off = inst.imm << 2

        def h(m, emit):
            regs = m.regs
            pc = m.pc
            a = regs[rs]
            b = regs[rt]
            taken = cmp(to_signed(a))
            npc = (pc + 4 + off) & _M if taken else (pc + 4) & _M
            m.pc = npc
            m.instret += 1
            if emit:
                return TraceRecord(pc, inst, a, b,
                                   0, -1, taken, npc)
            return None
        return h
    return binder


BINDERS["blez"] = _bind_branch1(lambda s: s <= 0)
BINDERS["bgtz"] = _bind_branch1(lambda s: s > 0)
BINDERS["bltz"] = _bind_branch1(lambda s: s < 0)
BINDERS["bgez"] = _bind_branch1(lambda s: s >= 0)


@_binder("j")
def _b_j(inst):
    rs, rt = inst.rs, inst.rt
    target = inst.target << 2

    def h(m, emit):
        regs = m.regs
        pc = m.pc
        a = regs[rs]
        b = regs[rt]
        npc = (((pc + 4) & 0xF000_0000) | target) & _M
        m.pc = npc
        m.instret += 1
        if emit:
            return TraceRecord(pc, inst, a, b,
                               0, -1, True, npc)
        return None
    return h


@_binder("jal")
def _b_jal(inst):
    rs, rt = inst.rs, inst.rt
    target = inst.target << 2

    def h(m, emit):
        regs = m.regs
        pc = m.pc
        a = regs[rs]
        b = regs[rt]
        r = pc + 4
        regs[31] = r
        npc = (((pc + 4) & 0xF000_0000) | target) & _M
        m.pc = npc
        m.instret += 1
        if emit:
            return TraceRecord(pc, inst, a, b,
                               r, -1, True, npc)
        return None
    return h


@_binder("jr")
def _b_jr(inst):
    rs, rt = inst.rs, inst.rt

    def h(m, emit):
        regs = m.regs
        pc = m.pc
        a = regs[rs]
        b = regs[rt]
        npc = a & _M
        m.pc = npc
        m.instret += 1
        if emit:
            return TraceRecord(pc, inst, a, b,
                               0, -1, True, npc)
        return None
    return h


@_binder("jalr")
def _b_jalr(inst):
    rs, rt, rd = inst.rs, inst.rt, inst.rd

    def h(m, emit):
        regs = m.regs
        pc = m.pc
        a = regs[rs]
        b = regs[rt]
        r = pc + 4
        if rd:
            regs[rd] = r
        npc = a & _M
        m.pc = npc
        m.instret += 1
        if emit:
            return TraceRecord(pc, inst, a, b,
                               r, -1, True, npc)
        return None
    return h


# -------------------------------------------------------- multiply / divide

@_binder("mult")
def _b_mult(inst):
    rs, rt = inst.rs, inst.rt

    def h(m, emit):
        regs = m.regs
        pc = m.pc
        a = regs[rs]
        b = regs[rt]
        product = to_signed(a) * to_signed(b)
        regs[HI] = (product >> 32) & _M
        regs[LO] = r = product & _M
        npc = (pc + 4) & _M
        m.pc = npc
        m.instret += 1
        if emit:
            return TraceRecord(pc, inst, a, b,
                               r, -1, False, npc)
        return None
    return h


@_binder("multu")
def _b_multu(inst):
    rs, rt = inst.rs, inst.rt

    def h(m, emit):
        regs = m.regs
        pc = m.pc
        a = regs[rs]
        b = regs[rt]
        product = a * b
        regs[HI] = (product >> 32) & _M
        regs[LO] = r = product & _M
        npc = (pc + 4) & _M
        m.pc = npc
        m.instret += 1
        if emit:
            return TraceRecord(pc, inst, a, b,
                               r, -1, False, npc)
        return None
    return h


@_binder("div")
def _b_div(inst):
    rs, rt = inst.rs, inst.rt

    def h(m, emit):
        regs = m.regs
        pc = m.pc
        a_u = regs[rs]
        b_u = regs[rt]
        a, b = to_signed(a_u), to_signed(b_u)
        if b == 0:
            regs[HI] = regs[LO] = 0
        else:
            q = abs(a) // abs(b)
            if (a < 0) != (b < 0):
                q = -q
            regs[LO] = q & _M
            regs[HI] = (a - q * b) & _M
        r = regs[LO]
        npc = (pc + 4) & _M
        m.pc = npc
        m.instret += 1
        if emit:
            return TraceRecord(pc, inst, a_u, b_u,
                               r, -1, False, npc)
        return None
    return h


@_binder("divu")
def _b_divu(inst):
    rs, rt = inst.rs, inst.rt

    def h(m, emit):
        regs = m.regs
        pc = m.pc
        a = regs[rs]
        b = regs[rt]
        if b == 0:
            regs[HI] = regs[LO] = 0
        else:
            regs[LO] = a // b
            regs[HI] = a % b
        r = regs[LO]
        npc = (pc + 4) & _M
        m.pc = npc
        m.instret += 1
        if emit:
            return TraceRecord(pc, inst, a, b,
                               r, -1, False, npc)
        return None
    return h


def _bind_mf(src):
    """mfhi/mflo: rd = regs[src]."""
    def binder(inst):
        rs, rt, rd = inst.rs, inst.rt, inst.rd

        def h(m, emit):
            regs = m.regs
            pc = m.pc
            a = regs[rs]
            b = regs[rt]
            r = regs[src]
            if rd:
                regs[rd] = r
            npc = (pc + 4) & _M
            m.pc = npc
            m.instret += 1
            if emit:
                return TraceRecord(pc, inst, a, b,
                                   r, -1, False, npc)
            return None
        return h
    return binder


def _bind_mt(dst):
    """mthi/mtlo: regs[dst] = rs_val."""
    def binder(inst):
        rs, rt = inst.rs, inst.rt

        def h(m, emit):
            regs = m.regs
            pc = m.pc
            a = regs[rs]
            b = regs[rt]
            regs[dst] = a
            npc = (pc + 4) & _M
            m.pc = npc
            m.instret += 1
            if emit:
                return TraceRecord(pc, inst, a, b,
                                   a, -1, False, npc)
            return None
        return h
    return binder


BINDERS["mfhi"] = _bind_mf(HI)
BINDERS["mflo"] = _bind_mf(LO)
BINDERS["mthi"] = _bind_mt(HI)
BINDERS["mtlo"] = _bind_mt(LO)


# ------------------------------------------------------------------ system

@_binder("syscall")
def _b_syscall(inst):
    rs, rt = inst.rs, inst.rt

    def h(m, emit):
        regs = m.regs
        pc = m.pc
        a = regs[rs]
        b = regs[rt]
        do_syscall(m)
        r = regs[2]
        npc = (pc + 4) & _M
        m.pc = npc
        m.instret += 1
        if emit:
            return TraceRecord(pc, inst, a, b,
                               r, -1, False, npc)
        return None
    return h


@_binder("break")
def _b_break(inst):
    rs, rt = inst.rs, inst.rt

    def h(m, emit):
        regs = m.regs
        pc = m.pc
        a = regs[rs]
        b = regs[rt]
        m.halted = True
        npc = (pc + 4) & _M
        m.pc = npc
        m.instret += 1
        if emit:
            return TraceRecord(pc, inst, a, b,
                               0, -1, False, npc)
        return None
    return h


# ----------------------------------------------------------- floating point

def _bind_fp3(op):
    """fd = fs op ft (fields: fs=rd, ft=rt, fd=shamt)."""
    def binder(inst):
        rs, rt = inst.rs, inst.rt
        fs = FP_BASE + inst.rd
        ft = FP_BASE + inst.rt
        fd = FP_BASE + inst.shamt

        def h(m, emit):
            regs = m.regs
            pc = m.pc
            rs_val = regs[rs]
            rt_val = regs[rt]
            a = f32_from_bits(regs[fs])
            b = f32_from_bits(regs[ft])
            if op == "add":
                value = a + b
            elif op == "sub":
                value = a - b
            elif op == "mul":
                value = a * b
            elif b == 0.0:
                # IEEE: x/0 = ±inf; 0/0 = NaN (Python would raise).
                value = math.nan if a == 0.0 or math.isnan(a) else math.copysign(math.inf, a) * math.copysign(1.0, b)
            else:
                value = a / b
            r = bits_from_f32(value)
            regs[fd] = r
            npc = (pc + 4) & _M
            m.pc = npc
            m.instret += 1
            if emit:
                return TraceRecord(pc, inst, rs_val, rt_val,
                                   r, -1, False, npc)
            return None
        return h
    return binder


BINDERS["add.s"] = _bind_fp3("add")
BINDERS["sub.s"] = _bind_fp3("sub")
BINDERS["mul.s"] = _bind_fp3("mul")
BINDERS["div.s"] = _bind_fp3("div")


def _fp_sqrt(bits):
    a = f32_from_bits(bits)
    return bits_from_f32(math.sqrt(a) if a >= 0 or math.isnan(a) else math.nan)


def _fp_cvt_w_s(bits):
    a = f32_from_bits(bits)
    if math.isnan(a) or math.isinf(a):
        return 0x7FFF_FFFF
    return max(-0x8000_0000, min(0x7FFF_FFFF, int(a))) & _M  # truncate toward zero


def _bind_fp2(fn):
    """fd = fn(fs bits) (fields: fs=rd, fd=shamt)."""
    def binder(inst):
        rs, rt = inst.rs, inst.rt
        fs = FP_BASE + inst.rd
        fd = FP_BASE + inst.shamt

        def h(m, emit):
            regs = m.regs
            pc = m.pc
            a = regs[rs]
            b = regs[rt]
            r = fn(regs[fs])
            regs[fd] = r
            npc = (pc + 4) & _M
            m.pc = npc
            m.instret += 1
            if emit:
                return TraceRecord(pc, inst, a, b,
                                   r, -1, False, npc)
            return None
        return h
    return binder


BINDERS["mov.s"] = _bind_fp2(lambda bits: bits)
BINDERS["neg.s"] = _bind_fp2(lambda bits: bits ^ 0x8000_0000)
BINDERS["abs.s"] = _bind_fp2(lambda bits: bits & 0x7FFF_FFFF)
BINDERS["sqrt.s"] = _bind_fp2(_fp_sqrt)
BINDERS["cvt.w.s"] = _bind_fp2(_fp_cvt_w_s)
BINDERS["cvt.s.w"] = _bind_fp2(lambda bits: bits_from_f32(float(to_signed(bits))))


def _bind_fp_cmp(op):
    """FCC = fs <op> ft; unordered compares are false."""
    def binder(inst):
        rs, rt = inst.rs, inst.rt
        fs = FP_BASE + inst.rd
        ft = FP_BASE + inst.rt

        def h(m, emit):
            regs = m.regs
            pc = m.pc
            rs_val = regs[rs]
            rt_val = regs[rt]
            a = f32_from_bits(regs[fs])
            b = f32_from_bits(regs[ft])
            if math.isnan(a) or math.isnan(b):
                flag = 0
            elif op == "eq":
                flag = int(a == b)
            elif op == "lt":
                flag = int(a < b)
            else:
                flag = int(a <= b)
            regs[FCC] = flag
            npc = (pc + 4) & _M
            m.pc = npc
            m.instret += 1
            if emit:
                return TraceRecord(pc, inst, rs_val, rt_val,
                                   flag, -1, False, npc)
            return None
        return h
    return binder


BINDERS["c.eq.s"] = _bind_fp_cmp("eq")
BINDERS["c.lt.s"] = _bind_fp_cmp("lt")
BINDERS["c.le.s"] = _bind_fp_cmp("le")


def _bind_fp_branch(want):
    """bc1t/bc1f: branch when FCC == want."""
    def binder(inst):
        rs, rt = inst.rs, inst.rt
        off = inst.imm << 2

        def h(m, emit):
            regs = m.regs
            pc = m.pc
            a = regs[rs]
            b = regs[rt]
            taken = regs[FCC] == want
            npc = (pc + 4 + off) & _M if taken else (pc + 4) & _M
            m.pc = npc
            m.instret += 1
            if emit:
                return TraceRecord(pc, inst, a, b,
                                   0, -1, taken, npc)
            return None
        return h
    return binder


BINDERS["bc1t"] = _bind_fp_branch(1)
BINDERS["bc1f"] = _bind_fp_branch(0)


@_binder("mfc1")
def _b_mfc1(inst):
    rs, rt = inst.rs, inst.rt
    fs = FP_BASE + inst.rd

    def h(m, emit):
        regs = m.regs
        pc = m.pc
        a = regs[rs]
        b = regs[rt]
        r = regs[fs]
        if rt:
            regs[rt] = r
        npc = (pc + 4) & _M
        m.pc = npc
        m.instret += 1
        if emit:
            return TraceRecord(pc, inst, a, b,
                               r, -1, False, npc)
        return None
    return h


@_binder("mtc1")
def _b_mtc1(inst):
    rs, rt = inst.rs, inst.rt
    fs = FP_BASE + inst.rd

    def h(m, emit):
        regs = m.regs
        pc = m.pc
        a = regs[rs]
        b = regs[rt]
        regs[fs] = b
        npc = (pc + 4) & _M
        m.pc = npc
        m.instret += 1
        if emit:
            return TraceRecord(pc, inst, a, b,
                               b, -1, False, npc)
        return None
    return h


# -------------------------------------------------------------------- bind

def bind(inst):
    """Return the specialized handler for one decoded instruction.

    Unknown mnemonics bind to a handler that raises
    :class:`IllegalInstruction` when (and only when) executed —
    matching the reference interpreter, which faults at execute time.
    """
    binder = BINDERS.get(inst.mnemonic)
    if binder is None:
        mnemonic = inst.mnemonic

        def h(m, emit):  # pragma: no cover - decode guarantees known mnemonics
            from repro.harness.errors import IllegalInstruction

            raise IllegalInstruction(f"unimplemented mnemonic {mnemonic!r}")
        return h
    return binder(inst)


def bind_program(decoded):
    """Bind a whole pre-decoded text segment (``None`` entries pass through)."""
    return [bind(inst) if inst is not None else None for inst in decoded]


# ------------------------------------------------------------- cross-check

def cross_check(program, max_steps: int = 100_000):
    """Differentially execute *program*: bound handlers vs reference.

    Single-steps a blocks-tier machine (:meth:`Machine.step` runs the
    pre-bound handlers) and a golden-reference machine in lockstep,
    comparing every :class:`TraceRecord` and the final architectural
    state (registers, PC, halt flag, output).

    Returns the number of instructions compared.

    Raises:
        DispatchDivergence: the first step (or final state) where the
            two interpreters disagree.
    """
    from repro.emulator.machine import Machine

    prod = Machine(program, dispatch="blocks")
    gold = Machine(program, dispatch="reference")
    n = 0
    while not gold.halted and n < max_steps:
        want = gold.step_reference()
        got = prod.step()
        if want != got:
            raise DispatchDivergence(
                f"step {n}: bound handler produced {got!r}, reference produced {want!r}"
            )
        n += 1
    if prod.regs != gold.regs:
        raise DispatchDivergence("final register files differ")
    if prod.pc != gold.pc or prod.halted != gold.halted or prod.output != gold.output:
        raise DispatchDivergence("final machine state differs")
    return n


__all__ = [
    "BINDERS",
    "DispatchDivergence",
    "bind",
    "bind_program",
    "bits_from_f32",
    "cross_check",
    "f32_from_bits",
    "to_signed",
]
