"""One ISA semantics table; the production tier is generated from it.

:data:`OPS` has one row per mnemonic: its kind (ALU, load, store,
branch, jump, indirect jump, mult/div, FP, system), its destination
field, and a Python source template of what it computes.  Templates
name their operands as placeholders:

* ``{a}``/``{b}``: the ``rs``/``rt`` values; ``{fs}``/``{ft}``: FP
  register bits; ``{hi}``, ``{lo}``, ``{fcc}``, ``{v0}``: fixed
  registers; ``{sa}``, ``{sb}``, ``{sfs}``: signed views of those;
* ``{imm}``, ``{uimm}`` (zero-extended), ``{imm32}``, ``{upper}``
  (the ``lui`` image), ``{shamt}``: constants from the instruction;
* ``{set_hi}``/``{set_lo}``: HI/LO assignments in a row's ``pre``
  statements.

Loads and stores take their width from
:data:`~repro.isa.instructions.MEM_WIDTH` and address ``{a} + {imm}``.
Which operands a row reads is derived from its templates.

Two generators expand the rows.  :func:`bind` compiles one factory per
mnemonic (on first use) and binds each decoded instruction to a
closure ``h(machine, emit) -> TraceRecord | None``: the handlers
behind :meth:`Machine.step`, cold code, syscalls and the fault path of
a compiled block.  :class:`~repro.emulator.blocks.BlockEngine` expands
the same rows into the run, trace and warm variants of every compiled
superblock.  A handler and a compiled block therefore cannot disagree
on what an instruction computes, and a new instruction is one row here
plus its branch in
:meth:`~repro.emulator.machine.Machine.step_reference`, the
independently written golden interpreter.  :func:`cross_check` is the
differential harness that checks the handlers against it (the
fault-injection campaign uses the same golden-model idiom, see
:mod:`repro.harness.faults`).
"""

from __future__ import annotations

import math
import re
import struct
from typing import NamedTuple

from repro.emulator.syscalls import do_syscall
from repro.emulator.trace import TraceRecord
from repro.harness.errors import EmulatorError
from repro.isa.instructions import MEM_WIDTH
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


def _fp_sqrt(bits):
    a = f32_from_bits(bits)
    return bits_from_f32(math.sqrt(a) if a >= 0 or math.isnan(a) else math.nan)


def _fp_cvt_w_s(bits):
    a = f32_from_bits(bits)
    if math.isnan(a) or math.isinf(a):
        return 0x7FFF_FFFF
    return max(-0x8000_0000, min(0x7FFF_FFFF, int(a))) & _M  # truncate toward zero


#: Names the row templates may call, bound into every generated handler
#: and compiled block.
HELPERS = {
    "_TR": TraceRecord,
    "_syscall": do_syscall,
    "_f32": f32_from_bits,
    "_b32": bits_from_f32,
    "_fsqrt": _fp_sqrt,
    "_fcvtws": _fp_cvt_w_s,
    "_isnan": math.isnan,
    "_cs": math.copysign,
    "_nan": math.nan,
    "_inf": math.inf,
    "_abs": abs,
    "_flt": float,
}


class DispatchDivergence(EmulatorError):
    """The production tier disagreed with the golden reference interpreter."""


# ------------------------------------------------------------ the table

ALU, MULDIV, FP, SYSTEM = "alu", "muldiv", "fp", "system"
LOAD, STORE, BRANCH, JUMP, IJUMP = "load", "store", "branch", "jump", "ijump"

#: Kinds that compute ``expr`` after the ``pre`` statements and write it
#: to ``dest``; the other kinds give their template a fixed role.
VALUE_KINDS = frozenset({ALU, MULDIV, FP, SYSTEM})

#: Register placeholders -> extended register number they read.
READS = {
    "a": lambda i: i.rs,
    "b": lambda i: i.rt,
    "fs": lambda i: FP_BASE + i.rd,
    "ft": lambda i: FP_BASE + i.rt,
    "hi": lambda i: HI,
    "lo": lambda i: LO,
    "fcc": lambda i: FCC,
    "v0": lambda i: 2,
}

#: Signed-view placeholders -> the register placeholder they view.
SIGNED = {"sa": "a", "sb": "b", "sfs": "fs"}

#: Constant placeholders, folded from the instruction's fields.
CONSTS = {
    "imm": lambda i: i.imm,
    "uimm": lambda i: i.imm & 0xFFFF,
    "imm32": lambda i: i.imm & _M,
    "upper": lambda i: (i.imm & 0xFFFF) << 16,
    "shamt": lambda i: i.shamt,
}

#: Assignment placeholders of ``pre`` statements -> register written.
WRITES = {"set_hi": HI, "set_lo": LO}

#: Destination fields -> extended register number written; a GPR
#: destination of ``$0`` means the write is dropped.
DESTS = {
    "rd": lambda i: i.rd,
    "rt": lambda i: i.rt,
    "ra": lambda i: 31,
    "hi": lambda i: HI,
    "lo": lambda i: LO,
    "fd": lambda i: FP_BASE + i.shamt,
    "fs": lambda i: FP_BASE + i.rd,
    "ft": lambda i: FP_BASE + i.rt,
    "fcc": lambda i: FCC,
}

#: The one addressing mode of loads and stores.
ADDR = "(({a}) + {imm}) & 4294967295"

#: Memory accessor suffix by access width.
ACCESS = {1: "byte", 2: "half", 4: "word"}


class Op(NamedTuple):
    """One row of :data:`OPS`.

    ``expr`` is the result (value kinds), the taken condition (branch),
    the target (indirect jump) or the stored data (store); loads and
    direct jumps need none.  A jump with a ``dest`` links ``pc + 4``.
    The last four fields are derived when :data:`OPS` is built: the
    access width from ``MEM_WIDTH``; from the templates, the
    placeholders in order of first appearance (``names``), the register
    placeholders read (``reads``, signed views resolved) and whether
    the result is a bare register, usable without a temporary
    (``direct``).
    """

    kind: str
    dest: str | None = None
    expr: str = ""
    pre: tuple[str, ...] = ()
    signed: bool = False
    width: int = 0
    names: tuple[str, ...] = ()
    reads: frozenset = frozenset()
    direct: bool = False


_SUM = "(({a} + {b}) & 4294967295)"
_DIFF = "(({a} - {b}) & 4294967295)"
_ADDI = "(({a} + {imm}) & 4294967295)"
_FP_OPERANDS = ("_fa = _f32({fs})", "_fb = _f32({ft})")
_MUL = ("{set_hi} = (_p >> 32) & 4294967295", "{set_lo} = _p & 4294967295")


def _fp_compare(op: str) -> Op:
    return Op(FP, "fcc", f"(0 if _isnan(_fa) or _isnan(_fb) else (1 if _fa {op} _fb else 0))",
              _FP_OPERANDS)


_ROWS = {
    # integer ALU, R-format: rd = f(rs, rt)
    "addu": Op(ALU, "rd", _SUM),
    "add": Op(ALU, "rd", _SUM),
    "subu": Op(ALU, "rd", _DIFF),
    "sub": Op(ALU, "rd", _DIFF),
    "and": Op(ALU, "rd", "({a} & {b})"),
    "or": Op(ALU, "rd", "({a} | {b})"),
    "xor": Op(ALU, "rd", "({a} ^ {b})"),
    "nor": Op(ALU, "rd", "(~({a} | {b}) & 4294967295)"),
    "slt": Op(ALU, "rd", "(1 if {sa} < {sb} else 0)"),
    "sltu": Op(ALU, "rd", "(1 if {a} < {b} else 0)"),
    "sllv": Op(ALU, "rd", "((({b}) << ({a} & 31)) & 4294967295)"),
    "srlv": Op(ALU, "rd", "(({b}) >> ({a} & 31))"),
    "srav": Op(ALU, "rd", "(({sb} >> ({a} & 31)) & 4294967295)"),
    "sll": Op(ALU, "rd", "((({b}) << {shamt}) & 4294967295)"),
    "srl": Op(ALU, "rd", "(({b}) >> {shamt})"),
    "sra": Op(ALU, "rd", "((({sb}) >> {shamt}) & 4294967295)"),
    # integer ALU, I-format: rt = f(rs, imm)
    "addiu": Op(ALU, "rt", _ADDI),
    "addi": Op(ALU, "rt", _ADDI),
    "andi": Op(ALU, "rt", "({a} & {uimm})"),
    "ori": Op(ALU, "rt", "({a} | {uimm})"),
    "xori": Op(ALU, "rt", "({a} ^ {uimm})"),
    "slti": Op(ALU, "rt", "(1 if {sa} < {imm} else 0)"),
    "sltiu": Op(ALU, "rt", "(1 if {a} < {imm32} else 0)"),
    "lui": Op(ALU, "rt", "{upper}"),
    # multiply / divide: the record carries LO
    "mult": Op(MULDIV, None, "{set_lo}", ("_p = {sa} * {sb}", *_MUL)),
    "multu": Op(MULDIV, None, "{set_lo}", ("_p = {a} * {b}", *_MUL)),
    "div": Op(MULDIV, None, "{set_lo}", (
        "_sa = {sa}",
        "_sb = {sb}",
        "if _sb == 0:",
        "    {set_hi} = {set_lo} = 0",
        "else:",
        "    _q = _abs(_sa) // _abs(_sb)",
        "    if (_sa < 0) != (_sb < 0):",
        "        _q = -_q",
        "    {set_lo} = _q & 4294967295",
        "    {set_hi} = (_sa - _q * _sb) & 4294967295",
    )),
    "divu": Op(MULDIV, None, "{set_lo}", (
        "if {b} == 0:",
        "    {set_hi} = {set_lo} = 0",
        "else:",
        "    {set_lo} = {a} // {b}",
        "    {set_hi} = {a} % {b}",
    )),
    "mfhi": Op(MULDIV, "rd", "{hi}"),
    "mflo": Op(MULDIV, "rd", "{lo}"),
    "mthi": Op(MULDIV, "hi", "{a}"),
    "mtlo": Op(MULDIV, "lo", "{a}"),
    # memory: loads record the loaded value, stores the stored image
    "lw": Op(LOAD, "rt"),
    "lb": Op(LOAD, "rt", signed=True),
    "lbu": Op(LOAD, "rt"),
    "lh": Op(LOAD, "rt", signed=True),
    "lhu": Op(LOAD, "rt"),
    "lwc1": Op(LOAD, "ft"),
    "sw": Op(STORE, None, "{b}"),
    "sh": Op(STORE, None, "{b}"),
    "sb": Op(STORE, None, "{b}"),
    "swc1": Op(STORE, None, "{ft}"),
    # control flow
    "beq": Op(BRANCH, None, "{a} == {b}"),
    "bne": Op(BRANCH, None, "{a} != {b}"),
    "blez": Op(BRANCH, None, "{sa} <= 0"),
    "bgtz": Op(BRANCH, None, "{sa} > 0"),
    "bltz": Op(BRANCH, None, "{sa} < 0"),
    "bgez": Op(BRANCH, None, "{sa} >= 0"),
    "bc1t": Op(BRANCH, None, "{fcc} == 1"),
    "bc1f": Op(BRANCH, None, "{fcc} == 0"),
    "j": Op(JUMP),
    "jal": Op(JUMP, "ra"),
    "jr": Op(IJUMP, None, "{a}"),
    "jalr": Op(IJUMP, "rd", "{a}"),
    # system: never compiled into blocks
    "syscall": Op(SYSTEM, None, "{v0}", ("_syscall(m)",)),
    "break": Op(SYSTEM, None, "0", ("m.halted = True",)),
    # floating point (fields: ft=rt, fs=rd, fd=shamt)
    "add.s": Op(FP, "fd", "_b32(_fa + _fb)", _FP_OPERANDS),
    "sub.s": Op(FP, "fd", "_b32(_fa - _fb)", _FP_OPERANDS),
    "mul.s": Op(FP, "fd", "_b32(_fa * _fb)", _FP_OPERANDS),
    "div.s": Op(FP, "fd", "_b32(_fv)", (
        *_FP_OPERANDS,
        "if _fb == 0.0:",  # IEEE: x/0 = +-inf, 0/0 = NaN (Python would raise)
        "    _fv = _nan if _fa == 0.0 or _isnan(_fa) else _cs(_inf, _fa) * _cs(1.0, _fb)",
        "else:",
        "    _fv = _fa / _fb",
    )),
    "mov.s": Op(FP, "fd", "{fs}"),
    "neg.s": Op(FP, "fd", "({fs} ^ 2147483648)"),
    "abs.s": Op(FP, "fd", "({fs} & 2147483647)"),
    "sqrt.s": Op(FP, "fd", "_fsqrt({fs})"),
    "cvt.w.s": Op(FP, "fd", "_fcvtws({fs})"),
    "cvt.s.w": Op(FP, "fd", "_b32(_flt({sfs}))"),
    "c.eq.s": _fp_compare("=="),
    "c.lt.s": _fp_compare("<"),
    "c.le.s": _fp_compare("<="),
    "mfc1": Op(FP, "rt", "{fs}"),
    "mtc1": Op(FP, "fs", "{b}"),
}


def _derive(mnemonic: str, row: Op) -> Op:
    texts = (*row.pre, row.expr, ADDR) if row.kind in (LOAD, STORE) else (*row.pre, row.expr)
    names = dict.fromkeys(name for text in texts for name in re.findall(r"\{(\w+)\}", text))
    bare = re.fullmatch(r"\{(\w+)\}", row.expr)
    return row._replace(
        width=MEM_WIDTH.get(mnemonic, 0),
        names=tuple(names),
        reads=frozenset(SIGNED.get(n, n) for n in names if n in READS or n in SIGNED),
        direct=bare is not None and (bare.group(1) in READS or bare.group(1) in WRITES),
    )


#: The semantics table: mnemonic -> :class:`Op`.
OPS: dict[str, Op] = {mnemonic: _derive(mnemonic, row) for mnemonic, row in _ROWS.items()}


def sgn(text: str) -> str:
    """Source of the signed view of the 32-bit operand *text*."""
    if text == "0":
        return "0"
    return f"({text} - 4294967296 if {text} & 2147483648 else {text})"


def sext(name: str, width: int) -> str:
    """Source sign-extending the *width*-byte value in local *name*."""
    bits = 8 * width
    return f"(({name} - {1 << bits}) if {name} & {1 << (bits - 1)} else {name}) & 4294967295"


# ------------------------------------------------------- handler generator

def _factory_source(row: Op) -> tuple[str, list]:
    """Source of ``make(inst, rs, rt, *extra)`` returning the bound
    handler of one row, plus the getters of its extra arguments."""
    params = ["inst", "rs", "rt"]
    getters: list = []

    def param(name, getter):
        if name not in params:
            params.append(name)
            getters.append(getter)

    ops = {}
    for name in row.names:
        base = SIGNED.get(name, name)
        if base in ("a", "b"):
            ops[base] = base
        elif base in READS:
            param(base, READS[base])
            ops[base] = f"regs[{base}]"
        elif name in CONSTS:
            param(name, CONSTS[name])
            ops[name] = name
        else:
            ops[name] = name  # WRITES: a local, stored after the statements
        if name in SIGNED:
            ops[name] = sgn(ops[base])
    if row.dest is not None:
        param("d", DESTS[row.dest])
    kind = row.kind
    body = ["regs = m.regs", "pc = m.pc", "a = regs[rs]", "b = regs[rt]"]
    res, addr, taken = "r", "-1", "False"
    npc = "(pc + 4) & 4294967295"
    if kind in VALUE_KINDS:
        body.extend(line.format_map(ops) for line in row.pre)
        body.append(f"r = {row.expr.format_map(ops)}")
    elif kind == LOAD:
        body.append(f"addr = {ADDR.format_map(ops)}")
        read = f"m.memory.read_{ACCESS[row.width]}(addr)"
        if row.signed:
            body += [f"_t = {read}", f"r = {sext('_t', row.width)}"]
        else:
            body.append(f"r = {read}")
        addr = "addr"
    elif kind == STORE:
        body += [
            f"addr = {ADDR.format_map(ops)}",
            f"r = {row.expr.format_map(ops)}",
            f"m.memory.write_{ACCESS[row.width]}(addr, r)",
        ]
        addr = "addr"
        if row.width < 4:
            res = f"r & {(1 << 8 * row.width) - 1}"
    elif kind == BRANCH:
        param("off", lambda i: i.imm << 2)
        body.append(f"taken = {row.expr.format_map(ops)}")
        npc = "(pc + 4 + off) & 4294967295 if taken else (pc + 4) & 4294967295"
        res, taken = "0", "taken"
    else:  # JUMP / IJUMP
        if kind == JUMP:
            param("target", lambda i: i.target << 2)
            npc = "(((pc + 4) & 4026531840) | target) & 4294967295"
        else:
            npc = f"{row.expr.format_map(ops)} & 4294967295"
        if row.dest is not None:
            body.append("r = pc + 4")
        else:
            res = "0"
        taken = "True"
    if row.dest is not None:
        body += ["if d:", "    regs[d] = r"]
    body += [f"regs[{WRITES[name]}] = {name}" for name in row.names if name in WRITES]
    body += [
        f"npc = {npc}",
        "m.pc = npc",
        "m.instret += 1",
        "if emit:",
        f"    return _TR(pc, inst, a, b, {res}, {addr}, {taken}, npc)",
        "return None",
    ]
    lines = [f"def make({', '.join(params)}):", "    def h(m, emit):"]
    lines += [f"        {line}" for line in body]
    lines.append("    return h")
    return "\n".join(lines) + "\n", getters


#: mnemonic -> (factory, extra-argument getters), compiled on first use.
_FACTORIES: dict = {}


def _factory(mnemonic: str):
    built = _FACTORIES.get(mnemonic)
    if built is None:
        src, getters = _factory_source(OPS[mnemonic])
        env = dict(HELPERS)
        exec(compile(src, f"<handler:{mnemonic}>", "exec"), env)
        built = _FACTORIES[mnemonic] = (env["make"], getters)
    return built


# -------------------------------------------------------------------- bind

def bind(inst):
    """Return the generated handler for one decoded instruction.

    Unknown mnemonics bind to a handler that raises
    :class:`IllegalInstruction` when (and only when) executed —
    matching the reference interpreter, which faults at execute time.
    """
    mnemonic = inst.mnemonic
    if mnemonic not in OPS:

        def h(m, emit):  # pragma: no cover - decode guarantees known mnemonics
            from repro.harness.errors import IllegalInstruction

            raise IllegalInstruction(f"unimplemented mnemonic {mnemonic!r}")
        return h
    make, getters = _factory(mnemonic)
    return make(inst, inst.rs, inst.rt, *[get(inst) for get in getters])


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
    "DispatchDivergence",
    "OPS",
    "Op",
    "bind",
    "bind_program",
    "bits_from_f32",
    "cross_check",
    "f32_from_bits",
    "to_signed",
]
