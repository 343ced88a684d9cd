"""Two-pass assembler for the PISA-like ISA.

Supports the hardware instruction set of :mod:`repro.isa.encoding`, a
practical set of pseudo-instructions (``li``, ``la``, ``move``, ``b``,
``beqz``/``bnez``, ``blt``/``bge``/``bgt``/``ble`` and unsigned forms,
``mul``, ``neg``, ``not``, ``halt``), and the data directives used by
the workload suite (``.text``/``.data``/``.word``/``.half``/``.byte``/
``.space``/``.ascii``/``.asciiz``/``.align``/``.equ``/``.globl``).

The output is a :class:`Program`: encoded text words, an initialized
data image, and a symbol table.  Addressing follows the usual MIPS
layout (text at ``0x0040_0000``, data at ``0x1000_0000``); branches are
PC-relative word offsets from the fall-through address with **no delay
slot** (as in SimpleScalar's simplified PISA model).
"""

from __future__ import annotations

import hashlib
import re
from dataclasses import dataclass, field

from repro.isa.encoding import ALL_MNEMONICS, OPCODES, encode
from repro.isa.instructions import (
    BRANCH1_OPS,
    BRANCH2_OPS,
    FP2_OPS,
    FP3_OPS,
    FP_BRANCH_OPS,
    FP_CMP_OPS,
    I_ALU_OPS,
    LOAD_OPS,
    MULTDIV_OPS,
    R3_OPS,
    RC_SHIFT_OPS,
    RV_SHIFT_OPS,
    STORE_OPS,
    Instruction,
)
from repro.isa.registers import fp_reg_num, reg_num

TEXT_BASE = 0x0040_0000
DATA_BASE = 0x1000_0000
STACK_TOP = 0x7FFF_F000


class AssemblerError(ValueError):
    """Raised on any syntax or semantic error, with line context."""

    def __init__(self, message: str, lineno: int | None = None, line: str | None = None):
        loc = f" (line {lineno}: {line!r})" if lineno is not None else ""
        super().__init__(message + loc)
        self.lineno = lineno


@dataclass
class Program:
    """An assembled program image.

    Attributes:
        text_base: virtual address of the first text word.
        text: encoded 32-bit instruction words.
        data_base: virtual address of the data segment.
        data: initialized data image (zero-padded over ``.space``).
        symbols: label → virtual address.
        entry: entry-point address (label ``main`` if present, else
            ``text_base``).
        source_map: text word index → source line number, for diagnostics.
    """

    text_base: int = TEXT_BASE
    text: list[int] = field(default_factory=list)
    data_base: int = DATA_BASE
    data: bytearray = field(default_factory=bytearray)
    symbols: dict[str, int] = field(default_factory=dict)
    entry: int = TEXT_BASE
    source_map: dict[int, int] = field(default_factory=dict)

    @property
    def text_size(self) -> int:
        return 4 * len(self.text)

    def address_of(self, label: str) -> int:
        """Virtual address of *label* (raises ``KeyError`` if absent)."""
        return self.symbols[label]


_LABEL_RE = re.compile(r"^([A-Za-z_.$][\w.$]*)\s*:\s*(.*)$")
_MEM_RE = re.compile(r"^(.*)\(\s*(\$?\w+)\s*\)$")
_HILO_RE = re.compile(r"^%(hi|lo)\(\s*([A-Za-z_.$][\w.$]*)\s*\)$")
_SYM_EXPR_RE = re.compile(r"^([A-Za-z_.$][\w.$]*)\s*([+-]\s*\d+)?$")


def _split_operands(text: str) -> list[str]:
    """Split an operand string on commas, respecting character literals."""
    if not text:
        return []
    parts: list[str] = []
    depth = 0
    cur = []
    in_str: str | None = None
    for ch in text:
        if in_str:
            cur.append(ch)
            if ch == in_str:
                in_str = None
            continue
        if ch in "'\"":
            in_str = ch
            cur.append(ch)
        elif ch == "(":
            depth += 1
            cur.append(ch)
        elif ch == ")":
            depth -= 1
            cur.append(ch)
        elif ch == "," and depth == 0:
            parts.append("".join(cur).strip())
            cur = []
        else:
            cur.append(ch)
    if cur:
        parts.append("".join(cur).strip())
    return [p for p in parts if p]


@dataclass
class _Item:
    """One pending text item between passes: a prototype instruction."""

    mnemonic: str
    operands: list[str]
    lineno: int
    line: str
    address: int = 0


class Assembler:
    """Two-pass assembler.  Use the :func:`assemble` convenience wrapper."""

    def __init__(self) -> None:
        self.symbols: dict[str, int] = {}
        self.equs: dict[str, int] = {}
        self.items: list[_Item] = []
        self.data = bytearray()
        self.text_loc = TEXT_BASE
        self.data_loc = DATA_BASE
        self.section = "text"
        self._pending_labels: list[str] = []
        self._data_fixups: list[tuple[int, int, str, int, str]] = []

    # ------------------------------------------------------------------ pass 1

    def first_pass(self, source: str) -> None:
        for lineno, raw in enumerate(source.splitlines(), start=1):
            line = self._strip_comment(raw).strip()
            while line:
                m = _LABEL_RE.match(line)
                if m and not line.startswith("."):
                    label, line = m.group(1), m.group(2).strip()
                    self._define_label(label, lineno, raw)
                    continue
                break
            if not line:
                continue
            if line.startswith("."):
                self._directive(line, lineno, raw)
            else:
                self._instruction_line(line, lineno, raw)

    @staticmethod
    def _strip_comment(line: str) -> str:
        out = []
        in_str: str | None = None
        for ch in line:
            if in_str:
                out.append(ch)
                if ch == in_str:
                    in_str = None
                continue
            if ch in "'\"":
                in_str = ch
                out.append(ch)
            elif ch in "#;":
                break
            else:
                out.append(ch)
        return "".join(out)

    def _define_label(self, label: str, lineno: int, raw: str) -> None:
        if label in self.symbols or label in self.equs or label in self._pending_labels:
            raise AssemblerError(f"duplicate label {label!r}", lineno, raw)
        if self.section == "text":
            self.symbols[label] = self.text_loc
        else:
            # Data labels bind lazily so that an aligning directive
            # (e.g. `.word` after an odd-length string) moves the label
            # with it rather than leaving it at the unaligned address.
            self._pending_labels.append(label)

    def _bind_pending_labels(self) -> None:
        for label in self._pending_labels:
            self.symbols[label] = self.data_loc
        self._pending_labels.clear()

    def _directive(self, line: str, lineno: int, raw: str) -> None:
        parts = line.split(None, 1)
        name = parts[0].lower()
        rest = parts[1].strip() if len(parts) > 1 else ""
        if name == ".text":
            self._bind_pending_labels()
            self.section = "text"
        elif name == ".data":
            self.section = "data"
        elif name == ".globl" or name == ".global" or name == ".ent" or name == ".end":
            pass
        elif name == ".equ" or name == ".set":
            ops = _split_operands(rest)
            if len(ops) != 2:
                raise AssemblerError(".equ needs name, value", lineno, raw)
            self.equs[ops[0]] = self._int_literal(ops[1], lineno, raw)
        elif name == ".align":
            n = self._int_literal(rest, lineno, raw)
            self._align(1 << n)
            self._bind_pending_labels()
        elif name == ".space":
            n = self._int_literal(rest, lineno, raw)
            self._bind_pending_labels()
            self._emit_data(b"\x00" * n)
        elif name in (".word", ".half", ".byte"):
            width = {".word": 4, ".half": 2, ".byte": 1}[name]
            self._align(width)
            self._bind_pending_labels()
            ops = _split_operands(rest)
            # Values may reference labels, so resolution is deferred: emit
            # placeholders now and patch in pass 2.
            for op in ops:
                self._data_fixups.append((len(self.data) if self.section == "data" else -1, width, op, lineno, raw))
                self._emit_data(b"\x00" * width)
        elif name in (".ascii", ".asciiz"):
            self._bind_pending_labels()
            value = self._string_literal(rest, lineno, raw)
            if name == ".asciiz":
                value += b"\x00"
            self._emit_data(value)
        else:
            raise AssemblerError(f"unknown directive {name}", lineno, raw)

    def _align(self, width: int) -> None:
        if self.section != "data":
            return
        pad = (-len(self.data)) % width
        self._emit_data(b"\x00" * pad)

    def _emit_data(self, payload: bytes) -> None:
        if self.section != "data":
            raise AssemblerError("data directive outside .data section")
        self.data.extend(payload)
        self.data_loc = DATA_BASE + len(self.data)

    def _string_literal(self, text: str, lineno: int, raw: str) -> bytes:
        text = text.strip()
        if len(text) < 2 or text[0] != '"' or text[-1] != '"':
            raise AssemblerError("expected string literal", lineno, raw)
        try:
            return text[1:-1].encode().decode("unicode_escape").encode("latin-1")
        except Exception as exc:  # noqa: BLE001 - report as assembly error
            raise AssemblerError(f"bad string literal: {exc}", lineno, raw) from None

    def _instruction_line(self, line: str, lineno: int, raw: str) -> None:
        if self.section != "text":
            raise AssemblerError("instruction outside .text section", lineno, raw)
        parts = line.split(None, 1)
        mnem = parts[0].lower()
        operands = _split_operands(parts[1]) if len(parts) > 1 else []
        for proto in self._expand(mnem, operands, lineno, raw):
            proto.address = self.text_loc
            self.items.append(proto)
            self.text_loc += 4

    # ------------------------------------------------------- pseudo expansion

    def _expand(self, mnem: str, ops: list[str], lineno: int, raw: str) -> list[_Item]:
        mk = lambda m, o: _Item(m, o, lineno, raw)  # noqa: E731
        if mnem == "nop":
            return [mk("sll", ["$0", "$0", "0"])]
        if mnem == "halt":
            return [mk("addiu", ["$v0", "$0", "10"]), mk("syscall", [])]
        if mnem == "move":
            self._arity(ops, 2, lineno, raw)
            return [mk("addu", [ops[0], ops[1], "$0"])]
        if mnem == "neg":
            self._arity(ops, 2, lineno, raw)
            return [mk("subu", [ops[0], "$0", ops[1]])]
        if mnem == "not":
            self._arity(ops, 2, lineno, raw)
            return [mk("nor", [ops[0], ops[1], "$0"])]
        if mnem == "b":
            self._arity(ops, 1, lineno, raw)
            return [mk("beq", ["$0", "$0", ops[0]])]
        if mnem == "beqz":
            self._arity(ops, 2, lineno, raw)
            return [mk("beq", [ops[0], "$0", ops[1]])]
        if mnem == "bnez":
            self._arity(ops, 2, lineno, raw)
            return [mk("bne", [ops[0], "$0", ops[1]])]
        if mnem in ("blt", "bge", "bgt", "ble", "bltu", "bgeu", "bgtu", "bleu"):
            self._arity(ops, 3, lineno, raw)
            slt = "sltu" if mnem.endswith("u") else "slt"
            base = mnem[:3]
            a, b_, target = ops
            if base in ("blt", "bge"):
                cmp_ops = ["$at", a, b_]
            else:  # bgt/ble: swap operands
                cmp_ops = ["$at", b_, a]
            br = "bne" if base in ("blt", "bgt") else "beq"
            return [mk(slt, cmp_ops), mk(br, ["$at", "$0", target])]
        if mnem == "mul":
            self._arity(ops, 3, lineno, raw)
            return [mk("mult", [ops[1], ops[2]]), mk("mflo", [ops[0]])]
        if mnem == "li":
            self._arity(ops, 2, lineno, raw)
            value = self._int_literal(ops[1], lineno, raw) & 0xFFFFFFFF
            return self._load_imm32(ops[0], value, mk)
        if mnem == "li.s":
            # Load an FP single constant: materialize the bit pattern
            # in $at, then move it to the FP register.
            self._arity(ops, 2, lineno, raw)
            import struct

            try:
                bits = struct.unpack("<I", struct.pack("<f", float(ops[1])))[0]
            except (ValueError, OverflowError):
                raise AssemblerError(f"bad float literal {ops[1]!r}", lineno, raw) from None
            return self._load_imm32("$at", bits, mk) + [mk("mtc1", ["$at", ops[0]])]
        if mnem == "la":
            self._arity(ops, 2, lineno, raw)
            # Deferred: label address resolved in pass 2 via the
            # adjusted %hi/%lo pair (addiu sign-extends %lo).
            return [
                mk("lui", ["$at", f"%hi({ops[1]})"]),
                mk("addiu", [ops[0], "$at", f"%lo({ops[1]})"]),
            ]
        if mnem in LOAD_OPS | STORE_OPS and len(ops) == 2 and "(" not in ops[1] and not self._looks_numeric(ops[1]):
            # `lw $t0, label` → address through $at.
            return [
                mk("lui", ["$at", f"%hi({ops[1]})"]),
                mk(mnem, [ops[0], f"%lo({ops[1]})($at)"]),
            ]
        if mnem not in ALL_MNEMONICS:
            raise AssemblerError(f"unknown mnemonic {mnem!r}", lineno, raw)
        return [mk(mnem, ops)]

    def _load_imm32(self, reg: str, value: int, mk) -> list[_Item]:
        lo = value & 0xFFFF
        hi = (value >> 16) & 0xFFFF
        signed = value - 0x1_0000_0000 if value & 0x8000_0000 else value
        if -0x8000 <= signed < 0x8000:
            return [mk("addiu", [reg, "$0", str(signed)])]
        if hi == 0:
            return [mk("ori", [reg, "$0", str(lo)])]
        if lo == 0:
            return [mk("lui", [reg, str(hi)])]
        return [mk("lui", [reg, str(hi)]), mk("ori", [reg, reg, str(lo)])]

    @staticmethod
    def _arity(ops: list[str], n: int, lineno: int, raw: str) -> None:
        if len(ops) != n:
            raise AssemblerError(f"expected {n} operands, got {len(ops)}", lineno, raw)

    @staticmethod
    def _looks_numeric(text: str) -> bool:
        t = text.strip()
        return bool(re.match(r"^[+-]?(0[xX][0-9a-fA-F]+|\d+|'((\\.)|[^'])')$", t))

    # ------------------------------------------------------------------ pass 2

    def second_pass(self) -> Program:
        program = Program(symbols=dict(self.symbols), data=self.data)
        program.entry = self.symbols.get("main", TEXT_BASE)
        for index, item in enumerate(self.items):
            inst = self._encode_item(item)
            program.text.append(encode(inst))
            program.source_map[index] = item.lineno
        for offset, width, expr, lineno, raw in self._data_fixups:
            value = self._value_expr(expr, lineno, raw) & ((1 << (8 * width)) - 1)
            self.data[offset : offset + width] = value.to_bytes(width, "little")
        program.data = self.data
        return program

    def _encode_item(self, item: _Item) -> Instruction:
        m, ops, lineno, raw = item.mnemonic, item.operands, item.lineno, item.line
        try:
            if m in R3_OPS:
                self._arity(ops, 3, lineno, raw)
                return Instruction(m, rd=reg_num(ops[0]), rs=reg_num(ops[1]), rt=reg_num(ops[2]))
            if m in RV_SHIFT_OPS:
                self._arity(ops, 3, lineno, raw)
                # rd = rt shifted by rs
                return Instruction(m, rd=reg_num(ops[0]), rt=reg_num(ops[1]), rs=reg_num(ops[2]))
            if m in RC_SHIFT_OPS:
                self._arity(ops, 3, lineno, raw)
                shamt = self._value_expr(ops[2], lineno, raw)
                if not 0 <= shamt < 32:
                    raise AssemblerError(f"shift amount out of range: {shamt}", lineno, raw)
                return Instruction(m, rd=reg_num(ops[0]), rt=reg_num(ops[1]), shamt=shamt)
            if m in I_ALU_OPS:
                self._arity(ops, 3, lineno, raw)
                imm = self._value_expr(ops[2], lineno, raw)
                return Instruction(m, rt=reg_num(ops[0]), rs=reg_num(ops[1]), imm=self._fit_imm(m, imm, lineno, raw))
            if m == "lui":
                self._arity(ops, 2, lineno, raw)
                imm = self._value_expr(ops[1], lineno, raw)
                return Instruction(m, rt=reg_num(ops[0]), imm=imm & 0xFFFF)
            if m in LOAD_OPS | STORE_OPS:
                self._arity(ops, 2, lineno, raw)
                offset, base = self._mem_operand(ops[1], lineno, raw)
                dest = fp_reg_num(ops[0]) if m in ("lwc1", "swc1") else reg_num(ops[0])
                return Instruction(m, rt=dest, rs=base, imm=offset)
            if m in FP3_OPS:
                self._arity(ops, 3, lineno, raw)
                return Instruction(
                    m, shamt=fp_reg_num(ops[0]), rd=fp_reg_num(ops[1]), rt=fp_reg_num(ops[2])
                )
            if m in FP2_OPS:
                self._arity(ops, 2, lineno, raw)
                return Instruction(m, shamt=fp_reg_num(ops[0]), rd=fp_reg_num(ops[1]))
            if m in FP_CMP_OPS:
                self._arity(ops, 2, lineno, raw)
                return Instruction(m, rd=fp_reg_num(ops[0]), rt=fp_reg_num(ops[1]))
            if m in FP_BRANCH_OPS:
                self._arity(ops, 1, lineno, raw)
                return Instruction(m, imm=self._branch_offset(ops[0], item.address, lineno, raw))
            if m in ("mfc1", "mtc1"):
                self._arity(ops, 2, lineno, raw)
                return Instruction(m, rt=reg_num(ops[0]), rd=fp_reg_num(ops[1]))
            if m in BRANCH2_OPS:
                self._arity(ops, 3, lineno, raw)
                return Instruction(
                    m, rs=reg_num(ops[0]), rt=reg_num(ops[1]),
                    imm=self._branch_offset(ops[2], item.address, lineno, raw),
                )
            if m in BRANCH1_OPS:
                self._arity(ops, 2, lineno, raw)
                return Instruction(m, rs=reg_num(ops[0]), imm=self._branch_offset(ops[1], item.address, lineno, raw))
            if m in ("j", "jal"):
                self._arity(ops, 1, lineno, raw)
                addr = self._value_expr(ops[0], lineno, raw)
                if addr % 4:
                    raise AssemblerError("jump target not word aligned", lineno, raw)
                return Instruction(m, target=(addr >> 2) & 0x3FFFFFF)
            if m == "jr":
                self._arity(ops, 1, lineno, raw)
                return Instruction(m, rs=reg_num(ops[0]))
            if m == "jalr":
                if len(ops) == 1:
                    return Instruction(m, rs=reg_num(ops[0]), rd=31)
                self._arity(ops, 2, lineno, raw)
                return Instruction(m, rd=reg_num(ops[0]), rs=reg_num(ops[1]))
            if m in MULTDIV_OPS:
                self._arity(ops, 2, lineno, raw)
                return Instruction(m, rs=reg_num(ops[0]), rt=reg_num(ops[1]))
            if m in ("mfhi", "mflo"):
                self._arity(ops, 1, lineno, raw)
                return Instruction(m, rd=reg_num(ops[0]))
            if m in ("mthi", "mtlo"):
                self._arity(ops, 1, lineno, raw)
                return Instruction(m, rs=reg_num(ops[0]))
            if m in ("syscall", "break"):
                return Instruction(m)
        except AssemblerError:
            raise
        except ValueError as exc:
            raise AssemblerError(str(exc), lineno, raw) from None
        raise AssemblerError(f"cannot encode mnemonic {m!r}", lineno, raw)

    def _fit_imm(self, mnemonic: str, imm: int, lineno: int, raw: str) -> int:
        unsigned = mnemonic in ("andi", "ori", "xori")
        lo, hi = (0, 0xFFFF) if unsigned else (-0x8000, 0x7FFF)
        if not lo <= imm <= hi:
            raise AssemblerError(f"immediate {imm} out of range for {mnemonic}", lineno, raw)
        return imm

    def _mem_operand(self, text: str, lineno: int, raw: str) -> tuple[int, int]:
        m = _MEM_RE.match(text.strip())
        if not m:
            raise AssemblerError(f"bad memory operand {text!r}", lineno, raw)
        offset_text = m.group(1).strip() or "0"
        offset = self._value_expr(offset_text, lineno, raw)
        if not -0x8000 <= offset <= 0x7FFF:
            raise AssemblerError(f"memory offset {offset} out of range", lineno, raw)
        return offset, reg_num(m.group(2))

    def _branch_offset(self, label: str, address: int, lineno: int, raw: str) -> int:
        target = self._value_expr(label, lineno, raw)
        delta = (target - (address + 4)) >> 2
        if (target - (address + 4)) % 4:
            raise AssemblerError("branch target not word aligned", lineno, raw)
        if not -0x8000 <= delta <= 0x7FFF:
            raise AssemblerError(f"branch to {label} out of range", lineno, raw)
        return delta

    def _value_expr(self, text: str, lineno: int, raw: str) -> int:
        """Evaluate an immediate/address expression.

        Accepts integer literals, character literals, ``.equ`` constants,
        labels, ``label+N``/``label-N``, and ``%hi(sym)``/``%lo(sym)``.
        """
        text = text.strip()
        if text.startswith("-") and not self._looks_numeric(text):
            return -self._value_expr(text[1:], lineno, raw)
        m = _HILO_RE.match(text)
        if m:
            # Adjusted hi/lo pair: %lo is sign-extended when consumed
            # (addiu / memory displacement), so %hi compensates with a
            # +1 carry when %lo's sign bit is set.  addr == (%hi << 16)
            # + sext16(%lo) always holds.
            addr = self._symbol(m.group(2), lineno, raw)
            if m.group(1) == "hi":
                return ((addr + 0x8000) >> 16) & 0xFFFF
            lo = addr & 0xFFFF
            return lo - 0x10000 if lo & 0x8000 else lo
        if self._looks_numeric(text):
            return self._int_literal(text, lineno, raw)
        m = _SYM_EXPR_RE.match(text)
        if m:
            base = self._symbol(m.group(1), lineno, raw)
            delta = int(m.group(2).replace(" ", "")) if m.group(2) else 0
            return base + delta
        raise AssemblerError(f"cannot evaluate expression {text!r}", lineno, raw)

    def _symbol(self, name: str, lineno: int, raw: str) -> int:
        if name in self.equs:
            return self.equs[name]
        if name in self.symbols:
            return self.symbols[name]
        raise AssemblerError(f"undefined symbol {name!r}", lineno, raw)

    def _int_literal(self, text: str, lineno: int | None = None, raw: str | None = None) -> int:
        t = text.strip()
        try:
            if t.startswith("'") and t.endswith("'") and len(t) >= 3:
                body = t[1:-1].encode().decode("unicode_escape")
                if len(body) != 1:
                    raise ValueError
                return ord(body)
            return int(t, 0)
        except ValueError:
            if t in self.equs:
                return self.equs[t]
            raise AssemblerError(f"bad integer literal {text!r}", lineno, raw) from None

    def assemble(self, source: str) -> Program:
        self.first_pass(source)
        self._bind_pending_labels()
        return self.second_pass()


def assemble(source: str) -> Program:
    """Assemble *source* text into a :class:`Program`."""
    return Assembler().assemble(source)


def program_digest(program: Program) -> str:
    """SHA-256 content hash of an assembled program image.

    Covers the segment bases, the entry point, the text words and the
    data image: everything a run depends on.  Trace-cache keys and the
    committed workload calibration both identify images by it.
    """
    h = hashlib.sha256()
    h.update(int(program.text_base).to_bytes(8, "little"))
    h.update(int(program.data_base).to_bytes(8, "little"))
    h.update(int(program.entry).to_bytes(8, "little"))
    h.update(b"".join(w.to_bytes(4, "little") for w in program.text))
    h.update(bytes(program.data))
    return h.hexdigest()
