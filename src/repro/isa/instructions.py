"""Decoded-instruction intermediate representation and dataflow queries.

:class:`Instruction` is the single IR shared by the assembler, the
functional emulator, the trace generator and the timing simulator.  The
dataflow helpers (:meth:`Instruction.src_regs` /
:meth:`Instruction.dst_regs`) report *extended* register numbers: 0–31
are the GPRs and 32/33 are HI/LO, so multiply/divide dependences are
tracked uniformly with everything else.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.isa.registers import FCC, FP_BASE, HI, LO

#: Mnemonics grouped by operand shape, used for dataflow and printing.
R3_OPS = frozenset({"add", "addu", "sub", "subu", "and", "or", "xor", "nor", "slt", "sltu"})
RV_SHIFT_OPS = frozenset({"sllv", "srlv", "srav"})
RC_SHIFT_OPS = frozenset({"sll", "srl", "sra"})
I_ALU_OPS = frozenset({"addi", "addiu", "slti", "sltiu", "andi", "ori", "xori"})
LOAD_OPS = frozenset({"lb", "lbu", "lh", "lhu", "lw", "lwc1"})
STORE_OPS = frozenset({"sb", "sh", "sw", "swc1"})
BRANCH2_OPS = frozenset({"beq", "bne"})
BRANCH1_OPS = frozenset({"blez", "bgtz", "bltz", "bgez"})
FP_BRANCH_OPS = frozenset({"bc1t", "bc1f"})
BRANCH_OPS = BRANCH2_OPS | BRANCH1_OPS | FP_BRANCH_OPS
MULTDIV_OPS = frozenset({"mult", "multu", "div", "divu"})
JUMP_OPS = frozenset({"j", "jal", "jr", "jalr"})
#: FP fmt-S/W register-register operations: fd = fs op ft (fields:
#: ft=rt, fs=rd, fd=shamt).
FP3_OPS = frozenset({"add.s", "sub.s", "mul.s", "div.s"})
FP2_OPS = frozenset({"sqrt.s", "abs.s", "mov.s", "neg.s", "cvt.w.s", "cvt.s.w"})
FP_CMP_OPS = frozenset({"c.eq.s", "c.lt.s", "c.le.s"})

#: Bytes transferred by each memory mnemonic.
MEM_WIDTH: dict[str, int] = {
    "lb": 1, "lbu": 1, "sb": 1,
    "lh": 2, "lhu": 2, "sh": 2,
    "lw": 4, "sw": 4,
    "lwc1": 4, "swc1": 4,
}


@dataclass(frozen=True, slots=True)
class Instruction:
    """One decoded instruction.

    Fields that a format does not use stay at their zero defaults; the
    encoder only reads the fields relevant to the mnemonic's format.

    Attributes:
        mnemonic: lower-case hardware mnemonic (no pseudo-ops).
        rs, rt, rd: register fields (0–31).
        shamt: shift amount for constant shifts (0–31).
        imm: immediate; sign-extended for arithmetic/memory/branch forms,
            zero-extended for ``andi``/``ori``/``xori``/``lui``.
        target: 26-bit word target for ``j``/``jal``.
    """

    mnemonic: str
    rs: int = 0
    rt: int = 0
    rd: int = 0
    shamt: int = 0
    imm: int = 0
    target: int = 0

    def src_regs(self) -> tuple[int, ...]:
        """Extended register numbers this instruction reads (dedup, $0 kept)."""
        m = self.mnemonic
        if m in R3_OPS or m in MULTDIV_OPS or m in BRANCH2_OPS:
            return (self.rs, self.rt)
        if m in RV_SHIFT_OPS:
            return (self.rs, self.rt)
        if m in RC_SHIFT_OPS:
            return (self.rt,)
        if m == "lwc1":
            return (self.rs,)
        if m == "swc1":
            return (self.rs, FP_BASE + self.rt)
        if m in I_ALU_OPS or m in LOAD_OPS or m in BRANCH1_OPS:
            return (self.rs,)
        if m in STORE_OPS:
            return (self.rs, self.rt)
        if m in FP3_OPS or m in FP_CMP_OPS:
            return (FP_BASE + self.rd, FP_BASE + self.rt)  # fs, ft
        if m in FP2_OPS:
            return (FP_BASE + self.rd,)  # fs
        if m in FP_BRANCH_OPS:
            return (FCC,)
        if m == "mfc1":
            return (FP_BASE + self.rd,)
        if m == "mtc1":
            return (self.rt,)
        if m in ("jr", "jalr"):
            return (self.rs,)
        if m == "mfhi":
            return (HI,)
        if m == "mflo":
            return (LO,)
        if m in ("mthi", "mtlo"):
            return (self.rs,)
        if m == "syscall":
            # Calling convention: service number in $v0, argument in $a0.
            return (2, 4)
        return ()

    def dst_regs(self) -> tuple[int, ...]:
        """Extended register numbers this instruction writes (never $0)."""
        m = self.mnemonic
        if m in R3_OPS or m in RV_SHIFT_OPS or m in RC_SHIFT_OPS:
            dst = self.rd
        elif m == "lwc1":
            return (FP_BASE + self.rt,)
        elif m == "swc1":
            return ()
        elif m in FP3_OPS or m in FP2_OPS:
            return (FP_BASE + self.shamt,)  # fd
        elif m in FP_CMP_OPS:
            return (FCC,)
        elif m == "mfc1":
            dst = self.rt
        elif m == "mtc1":
            return (FP_BASE + self.rd,)
        elif m in I_ALU_OPS or m in LOAD_OPS or m == "lui":
            dst = self.rt
        elif m in MULTDIV_OPS:
            return (HI, LO)
        elif m in ("mfhi", "mflo"):
            dst = self.rd
        elif m == "mthi":
            return (HI,)
        elif m == "mtlo":
            return (LO,)
        elif m == "jal":
            dst = 31
        elif m == "jalr":
            dst = self.rd if self.rd else 31
        else:
            return ()
        return (dst,) if dst != 0 else ()

    @property
    def is_load(self) -> bool:
        return self.mnemonic in LOAD_OPS

    @property
    def is_store(self) -> bool:
        return self.mnemonic in STORE_OPS

    @property
    def is_branch(self) -> bool:
        return self.mnemonic in BRANCH_OPS

    @property
    def is_jump(self) -> bool:
        return self.mnemonic in JUMP_OPS

    @property
    def is_control(self) -> bool:
        return self.is_branch or self.is_jump

    @property
    def is_nop(self) -> bool:
        return self.mnemonic == "sll" and self.rd == 0 and self.rt == 0 and self.shamt == 0

    def __str__(self) -> str:  # pragma: no cover - convenience only
        from repro.isa.disassembler import format_instruction

        return format_instruction(self)

    def _replace(self, **kwargs) -> "Instruction":
        """Return a copy with the given fields replaced."""
        data = {
            "mnemonic": self.mnemonic, "rs": self.rs, "rt": self.rt,
            "rd": self.rd, "shamt": self.shamt, "imm": self.imm,
            "target": self.target,
        }
        data.update(kwargs)
        return Instruction(**data)


#: Canonical no-op (``sll $0, $0, 0``).
NOP = Instruction("sll")
