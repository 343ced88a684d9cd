"""Architectural machine: loads a program image and executes it.

The machine implements precise 32-bit PISA-like semantics: wraparound
arithmetic, signed/unsigned compares, HI/LO multiply-divide, and no
branch delay slots (matching SimpleScalar's simplified PISA).  Text is
pre-decoded at load time so the interpreter loop touches only Python
ints and the pre-built :class:`~repro.isa.instructions.Instruction`
objects.

Two interpreters share the machine state:

* the **blocks tier** (default): hot basic blocks and superblocks
  compile to fused Python functions (:mod:`repro.emulator.blocks`)
  with registers in host locals and batched memory runs.  Everything
  else — cold code, syscalls, block exits, :meth:`step` — executes
  through per-instruction closures bound at decode time.  Both are
  generated from one ISA semantics table
  (:data:`repro.emulator.dispatch.OPS`);
* the **golden reference** (:meth:`step_reference`): the original
  ``if``/``elif`` interpreter, kept verbatim as the oracle that the
  bound handlers and the compiled blocks are differentially checked
  against (:func:`repro.emulator.dispatch.cross_check`,
  :func:`repro.emulator.blocks.cross_check_blocks`).

Set ``REPRO_DISPATCH=reference`` (or pass ``dispatch="reference"``) to
force the golden interpreter everywhere — useful for A/B performance
measurements and for bisecting a suspected production-tier bug.  Sweep
workers inherit the variable with the rest of the environment.
"""

from __future__ import annotations

import math
import os

from repro.context import current as _run_context
from repro.emulator import dispatch as _dispatch
from repro.emulator.dispatch import bits_from_f32, f32_from_bits, to_signed
from repro.emulator.memory import SparseMemory
from repro.emulator.syscalls import SYS_EXIT, do_syscall
from repro.emulator.trace import TraceRecord
from repro.harness.errors import EmulatorError, IllegalInstruction
from repro.isa.assembler import STACK_TOP, Program
from repro.isa.encoding import EncodingError, decode
from repro.isa.registers import FCC, FP_BASE, HI, LO, NUM_EXT_REGS

_M = 0xFFFFFFFF

#: Environment variable selecting the interpreter: unset or empty for
#: the production tier, ``reference`` for the golden model.
DISPATCH_ENV = "REPRO_DISPATCH"

#: Interpreter tiers: the production tier, then the golden reference.
DISPATCH_TIERS = ("blocks", "reference")


def default_dispatch() -> str:
    """Interpreter selected by ``REPRO_DISPATCH``.

    Returns ``"blocks"`` (the block-compiled production tier) when the
    variable is unset or empty, ``"reference"`` for the golden
    interpreter.

    Raises:
        ValueError: for any other value, so a misspelt ``reference``
            cannot silently run the production tier.
    """
    value = os.environ.get(DISPATCH_ENV) or DISPATCH_TIERS[0]
    if value not in DISPATCH_TIERS:
        raise ValueError(
            f"{DISPATCH_ENV}={value!r}: expected unset, empty, 'reference' or 'blocks'"
        )
    return value


class Machine:
    """Architectural state plus an interpreter loop.

    Attributes:
        regs: 34-entry extended register file (GPRs + HI/LO), values are
            Python ints in ``[0, 2**32)``.
        pc: current program counter.
        halted: set by the exit syscall.
        output: bytes written by print syscalls.
        instret: retired instruction count.
    """

    def __init__(
        self,
        program: Program,
        dispatch: str | None = None,
        block_threshold: int | None = None,
    ) -> None:
        self.program = program
        self.memory = SparseMemory()
        self.memory.write_block(program.data_base, bytes(program.data))
        text_bytes = b"".join(w.to_bytes(4, "little") for w in program.text)
        self.memory.write_block(program.text_base, text_bytes)
        # Undecodable text words fault only if fetched, so a corrupt
        # word in dead code cannot kill an otherwise valid image.
        decoded = []
        for w in program.text:
            try:
                decoded.append(decode(w))
            except EncodingError:
                decoded.append(None)
        self.decoded = decoded
        if dispatch is None:
            dispatch = default_dispatch()
        elif dispatch == "fast":
            # The retired per-instruction tier's name; callers written
            # before blocks became the default still get production.
            dispatch = "blocks"
        elif dispatch not in DISPATCH_TIERS:
            raise ValueError(f"dispatch={dispatch!r}: expected 'blocks' or 'reference'")
        self.dispatch = dispatch
        # Pre-bound handlers, parallel to ``decoded``: the blocks tier
        # falls back to these between compiled blocks.
        self._bound = _dispatch.bind_program(decoded) if dispatch == "blocks" else None
        self.regs: list[int] = [0] * NUM_EXT_REGS
        self.regs[29] = STACK_TOP  # $sp
        self.regs[28] = (program.data_base + 0x8000) & _M  # $gp convention
        self.pc = program.entry
        self.halted = False
        self.exit_code = 0
        self.output = bytearray()
        self.instret = 0
        self._warm_sink = None
        self._warm_need = None
        if self._bound is not None:
            from repro.emulator.blocks import BlockEngine

            self._engine = BlockEngine(self, threshold=block_threshold)
        else:
            self._engine = None

    def attach_warm_sink(self, hierarchy, predictor) -> None:
        """Bind functional-warming targets for :meth:`run_warm`.

        *hierarchy* (a :class:`~repro.memsys.hierarchy.MemoryHierarchy`)
        and *predictor* (a
        :class:`~repro.branch.predictor.FrontEndPredictor`) receive
        every memory touch / fetch-line transition / control-transfer
        outcome the guest retires during warm-mode execution.  Warm
        blocks bind the sink's methods directly, so any previously
        compiled warm entries are dropped for rebinding.
        """
        self._warm_sink = (hierarchy, predictor)
        # Per-index flag: does warm-mode fallback need the trace record
        # (control transfers and memory ops) or just the I-side touch?
        self._warm_need = [
            inst is not None and (inst.is_control or inst.is_load or inst.is_store)
            for inst in self.decoded
        ]
        if self._engine is not None:
            self._engine.reset_variant("warm")

    # ------------------------------------------------------------------ fetch

    def fetch(self, pc: int):
        """Return the pre-decoded instruction at *pc*.

        Raises:
            IllegalInstruction: *pc* is misaligned, outside the text
                segment, or addresses a word that does not decode.
        """
        index = (pc - self.program.text_base) >> 2
        if pc & 3 or not 0 <= index < len(self.decoded):
            raise IllegalInstruction(f"PC out of text segment: {pc:#x}")
        inst = self.decoded[index]
        if inst is None:
            word = self.program.text[index]
            raise IllegalInstruction(f"undecodable instruction word {word:#010x} at {pc:#x}")
        return inst

    # ------------------------------------------------------------------- step

    def step(self) -> TraceRecord:
        """Execute one instruction and return its trace record.

        Dispatches through the pre-bound handler (blocks tier) or the
        golden reference interpreter, per this machine's ``dispatch``
        mode — the two are bit-identical by construction and checked
        differentially (:func:`repro.emulator.dispatch.cross_check`).

        Raises:
            EmulatorError: if the machine is already halted or the PC
                leaves the text segment.
        """
        if self.halted:
            raise EmulatorError("machine is halted")
        if self._bound is None:
            return self.step_reference()
        # The blocks engine only accelerates the bulk _loop; single
        # steps go through the pre-bound handlers.
        pc = self.pc
        bound = self._bound
        index = (pc - self.program.text_base) >> 2
        if pc & 3 or not 0 <= index < len(bound) or bound[index] is None:
            self.fetch(pc)  # raises IllegalInstruction with the canonical message
        return bound[index](self, True)

    def step_reference(self) -> TraceRecord:
        """The golden-model interpreter: one ``if``/``elif`` chain.

        Kept verbatim as the oracle for the bound handlers and compiled
        blocks; it is exercised by the differential tests and
        selectable at runtime via ``REPRO_DISPATCH=reference``.

        Raises:
            EmulatorError: if the machine is already halted or the PC
                leaves the text segment.
        """
        if self.halted:
            raise EmulatorError("machine is halted")
        pc = self.pc
        inst = self.fetch(pc)
        regs = self.regs
        m = inst.mnemonic
        rs_val = regs[inst.rs]
        rt_val = regs[inst.rt]
        next_pc = pc + 4
        result = 0
        mem_addr = -1
        taken = False

        if m == "addu" or m == "add":
            result = (rs_val + rt_val) & _M
            if inst.rd:
                regs[inst.rd] = result
        elif m == "addiu" or m == "addi":
            result = (rs_val + inst.imm) & _M
            if inst.rt:
                regs[inst.rt] = result
        elif m == "lw":
            mem_addr = (rs_val + inst.imm) & _M
            result = self.memory.read_word(mem_addr)
            if inst.rt:
                regs[inst.rt] = result
        elif m == "sw":
            mem_addr = (rs_val + inst.imm) & _M
            result = rt_val
            self.memory.write_word(mem_addr, rt_val)
        elif m == "beq":
            taken = rs_val == rt_val
            if taken:
                next_pc = pc + 4 + (inst.imm << 2)
        elif m == "bne":
            taken = rs_val != rt_val
            if taken:
                next_pc = pc + 4 + (inst.imm << 2)
        elif m == "subu" or m == "sub":
            result = (rs_val - rt_val) & _M
            if inst.rd:
                regs[inst.rd] = result
        elif m == "and":
            result = rs_val & rt_val
            if inst.rd:
                regs[inst.rd] = result
        elif m == "or":
            result = rs_val | rt_val
            if inst.rd:
                regs[inst.rd] = result
        elif m == "xor":
            result = rs_val ^ rt_val
            if inst.rd:
                regs[inst.rd] = result
        elif m == "nor":
            result = ~(rs_val | rt_val) & _M
            if inst.rd:
                regs[inst.rd] = result
        elif m == "andi":
            result = rs_val & (inst.imm & 0xFFFF)
            if inst.rt:
                regs[inst.rt] = result
        elif m == "ori":
            result = rs_val | (inst.imm & 0xFFFF)
            if inst.rt:
                regs[inst.rt] = result
        elif m == "xori":
            result = rs_val ^ (inst.imm & 0xFFFF)
            if inst.rt:
                regs[inst.rt] = result
        elif m == "lui":
            result = (inst.imm & 0xFFFF) << 16
            if inst.rt:
                regs[inst.rt] = result
        elif m == "sll":
            result = (rt_val << inst.shamt) & _M
            if inst.rd:
                regs[inst.rd] = result
        elif m == "srl":
            result = rt_val >> inst.shamt
            if inst.rd:
                regs[inst.rd] = result
        elif m == "sra":
            result = (to_signed(rt_val) >> inst.shamt) & _M
            if inst.rd:
                regs[inst.rd] = result
        elif m == "sllv":
            result = (rt_val << (rs_val & 31)) & _M
            if inst.rd:
                regs[inst.rd] = result
        elif m == "srlv":
            result = rt_val >> (rs_val & 31)
            if inst.rd:
                regs[inst.rd] = result
        elif m == "srav":
            result = (to_signed(rt_val) >> (rs_val & 31)) & _M
            if inst.rd:
                regs[inst.rd] = result
        elif m == "slt":
            result = 1 if to_signed(rs_val) < to_signed(rt_val) else 0
            if inst.rd:
                regs[inst.rd] = result
        elif m == "sltu":
            result = 1 if rs_val < rt_val else 0
            if inst.rd:
                regs[inst.rd] = result
        elif m == "slti":
            result = 1 if to_signed(rs_val) < inst.imm else 0
            if inst.rt:
                regs[inst.rt] = result
        elif m == "sltiu":
            result = 1 if rs_val < (inst.imm & _M) else 0
            if inst.rt:
                regs[inst.rt] = result
        elif m == "lb":
            mem_addr = (rs_val + inst.imm) & _M
            b = self.memory.read_byte(mem_addr)
            result = (b - 0x100 if b & 0x80 else b) & _M
            if inst.rt:
                regs[inst.rt] = result
        elif m == "lbu":
            mem_addr = (rs_val + inst.imm) & _M
            result = self.memory.read_byte(mem_addr)
            if inst.rt:
                regs[inst.rt] = result
        elif m == "lh":
            mem_addr = (rs_val + inst.imm) & _M
            h = self.memory.read_half(mem_addr)
            result = (h - 0x10000 if h & 0x8000 else h) & _M
            if inst.rt:
                regs[inst.rt] = result
        elif m == "lhu":
            mem_addr = (rs_val + inst.imm) & _M
            result = self.memory.read_half(mem_addr)
            if inst.rt:
                regs[inst.rt] = result
        elif m == "sb":
            mem_addr = (rs_val + inst.imm) & _M
            result = rt_val & 0xFF
            self.memory.write_byte(mem_addr, rt_val)
        elif m == "sh":
            mem_addr = (rs_val + inst.imm) & _M
            result = rt_val & 0xFFFF
            self.memory.write_half(mem_addr, rt_val)
        elif m == "blez":
            taken = to_signed(rs_val) <= 0
            if taken:
                next_pc = pc + 4 + (inst.imm << 2)
        elif m == "bgtz":
            taken = to_signed(rs_val) > 0
            if taken:
                next_pc = pc + 4 + (inst.imm << 2)
        elif m == "bltz":
            taken = to_signed(rs_val) < 0
            if taken:
                next_pc = pc + 4 + (inst.imm << 2)
        elif m == "bgez":
            taken = to_signed(rs_val) >= 0
            if taken:
                next_pc = pc + 4 + (inst.imm << 2)
        elif m == "j":
            taken = True
            next_pc = ((pc + 4) & 0xF000_0000) | (inst.target << 2)
        elif m == "jal":
            taken = True
            result = pc + 4
            regs[31] = result
            next_pc = ((pc + 4) & 0xF000_0000) | (inst.target << 2)
        elif m == "jr":
            taken = True
            next_pc = rs_val
        elif m == "jalr":
            taken = True
            result = pc + 4
            if inst.rd:
                regs[inst.rd] = result
            next_pc = rs_val
        elif m == "mult":
            product = to_signed(rs_val) * to_signed(rt_val)
            regs[HI] = (product >> 32) & _M
            regs[LO] = result = product & _M
        elif m == "multu":
            product = rs_val * rt_val
            regs[HI] = (product >> 32) & _M
            regs[LO] = result = product & _M
        elif m == "div":
            a, b = to_signed(rs_val), to_signed(rt_val)
            if b == 0:
                regs[HI] = regs[LO] = 0
            else:
                q = abs(a) // abs(b)
                if (a < 0) != (b < 0):
                    q = -q
                regs[LO] = q & _M
                regs[HI] = (a - q * b) & _M
            result = regs[LO]
        elif m == "divu":
            if rt_val == 0:
                regs[HI] = regs[LO] = 0
            else:
                regs[LO] = rs_val // rt_val
                regs[HI] = rs_val % rt_val
            result = regs[LO]
        elif m == "mfhi":
            result = regs[HI]
            if inst.rd:
                regs[inst.rd] = result
        elif m == "mflo":
            result = regs[LO]
            if inst.rd:
                regs[inst.rd] = result
        elif m == "mthi":
            regs[HI] = result = rs_val
        elif m == "mtlo":
            regs[LO] = result = rs_val
        elif m == "syscall":
            do_syscall(self)
            result = regs[2]
        elif m == "break":
            self.halted = True
        elif m == "lwc1":
            mem_addr = (rs_val + inst.imm) & _M
            result = self.memory.read_word(mem_addr)
            regs[FP_BASE + inst.rt] = result
        elif m == "swc1":
            mem_addr = (rs_val + inst.imm) & _M
            result = regs[FP_BASE + inst.rt]
            self.memory.write_word(mem_addr, result)
        elif m in ("add.s", "sub.s", "mul.s", "div.s"):
            a = f32_from_bits(regs[FP_BASE + inst.rd])  # fs
            b = f32_from_bits(regs[FP_BASE + inst.rt])  # ft
            if m == "add.s":
                value = a + b
            elif m == "sub.s":
                value = a - b
            elif m == "mul.s":
                value = a * b
            elif b == 0.0:
                # IEEE: x/0 = ±inf; 0/0 = NaN (Python would raise).
                value = math.nan if a == 0.0 or math.isnan(a) else math.copysign(math.inf, a) * math.copysign(1.0, b)
            else:
                value = a / b
            result = bits_from_f32(value)
            regs[FP_BASE + inst.shamt] = result  # fd
        elif m in ("sqrt.s", "abs.s", "mov.s", "neg.s"):
            bits = regs[FP_BASE + inst.rd]
            if m == "mov.s":
                result = bits
            elif m == "neg.s":
                result = bits ^ 0x8000_0000
            elif m == "abs.s":
                result = bits & 0x7FFF_FFFF
            else:
                a = f32_from_bits(bits)
                result = bits_from_f32(math.sqrt(a) if a >= 0 or math.isnan(a) else math.nan)
            regs[FP_BASE + inst.shamt] = result
        elif m == "cvt.w.s":
            a = f32_from_bits(regs[FP_BASE + inst.rd])
            if math.isnan(a) or math.isinf(a):
                value = 0x7FFF_FFFF
            else:
                value = max(-0x8000_0000, min(0x7FFF_FFFF, int(a)))  # truncate toward zero
            result = value & _M
            regs[FP_BASE + inst.shamt] = result
        elif m == "cvt.s.w":
            raw = regs[FP_BASE + inst.rd]
            result = bits_from_f32(float(to_signed(raw)))
            regs[FP_BASE + inst.shamt] = result
        elif m in ("c.eq.s", "c.lt.s", "c.le.s"):
            a = f32_from_bits(regs[FP_BASE + inst.rd])
            b = f32_from_bits(regs[FP_BASE + inst.rt])
            if math.isnan(a) or math.isnan(b):
                flag = 0  # unordered: all ordered compares are false
            elif m == "c.eq.s":
                flag = int(a == b)
            elif m == "c.lt.s":
                flag = int(a < b)
            else:
                flag = int(a <= b)
            regs[FCC] = result = flag
        elif m == "bc1t":
            taken = regs[FCC] == 1
            if taken:
                next_pc = pc + 4 + (inst.imm << 2)
        elif m == "bc1f":
            taken = regs[FCC] == 0
            if taken:
                next_pc = pc + 4 + (inst.imm << 2)
        elif m == "mfc1":
            result = regs[FP_BASE + inst.rd]
            if inst.rt:
                regs[inst.rt] = result
        elif m == "mtc1":
            regs[FP_BASE + inst.rd] = result = rt_val
        else:  # pragma: no cover - decode guarantees known mnemonics
            raise IllegalInstruction(f"unimplemented mnemonic {m!r}")

        self.pc = next_pc & _M
        self.instret += 1
        return TraceRecord(
            pc=pc, inst=inst, rs_val=rs_val, rt_val=rt_val,
            result=result, mem_addr=mem_addr, taken=taken, next_pc=self.pc,
        )

    # ------------------------------------------------------------------- run

    def _loop(self, max_steps: int, watchdog, emit: bool, warm: bool = False):
        """The single interpreter loop behind :meth:`run` and :meth:`trace`.

        A generator that executes until halt or *max_steps*, yielding a
        :class:`TraceRecord` per retired instruction when *emit* is
        true.  With *emit* false the loop never suspends — handlers
        skip record construction entirely and driving the generator
        costs one frame — which is what makes :meth:`run` fast.  The
        optional watchdog is polled once per instruction (reference)
        or compiled block (blocks tier).  *warm* (blocks tier, run mode
        only) dispatches through the functional-warming block variants
        — see :meth:`run_warm`.

        The loop keeps no guest profile: the guest profiler counts the
        records of a collected trace
        (:func:`~repro.obs.guestprof.profile_from_records`).
        """
        if watchdog is not None:
            watchdog.start()
        n = 0
        if self._engine is None:
            while not self.halted and n < max_steps:
                record = self.step_reference()
                n += 1
                if watchdog is not None:
                    watchdog.poll(n)
                if emit:
                    yield record
            return
        # Block-compiled tier: hot leaders execute as fused compiled
        # functions (one call per block, watchdog polled per block — a
        # step-budget breach is detected at block granularity, bounded
        # by MAX_BLOCK_LEN); everything else single-steps through the
        # pre-bound handlers.  A compiled body that raises commits
        # nothing; the engine resumes it at the faulting instruction,
        # whose handler raises the reference fault.
        eng = self._engine
        bound = self._bound
        base = self.program.text_base
        size = len(bound)
        variant = "trace" if emit else ("warm" if warm else "run")
        table = eng.tables[variant]
        sink_h, sink_p = self._warm_sink if warm else (None, None)
        warm_need = self._warm_need if warm else None
        execs = 0
        insts = 0
        fallback = 0
        side_exits = 0
        try:
            while not self.halted and n < max_steps:
                pc = self.pc
                index = (pc - base) >> 2
                if pc & 3 or not 0 <= index < size:
                    self.fetch(pc)  # raises the canonical IllegalInstruction
                entry = table[index]
                if entry is not None:
                    cls = entry.__class__
                    if cls is int:
                        if entry <= 1:
                            eng.compile_block(index, variant)
                            entry = table[index]
                            cls = None if entry is None else tuple
                        else:
                            table[index] = entry - 1
                            cls = None
                    if cls is tuple:
                        n_max, fn = entry
                        if emit:
                            if n + n_max <= max_steps:
                                try:
                                    records = fn(self)
                                except Exception as exc:  # resume at the fault
                                    for record in eng.replay(self, exc):
                                        n += 1
                                        yield record
                                    raise  # pragma: no cover - replay re-raises
                                cnt = len(records)
                                n += cnt
                                execs += 1
                                insts += cnt
                                if cnt != n_max:
                                    side_exits += 1
                                if watchdog is not None:
                                    watchdog.poll(n)
                                yield from records
                                continue
                        else:
                            # Chain loop: the run variant returns the next
                            # leader's index packed with the retired
                            # count, so consecutive compiled blocks
                            # execute back-to-back without re-deriving
                            # anything from the PC.
                            ran = False
                            while n + n_max <= max_steps:
                                try:
                                    ret = fn(self)
                                except Exception as exc:  # resume at the fault
                                    for _ in eng.replay(self, exc):
                                        n += 1
                                    raise  # pragma: no cover - replay re-raises
                                ran = True
                                cnt = ret & 255
                                n += cnt
                                execs += 1
                                insts += cnt
                                if cnt != n_max:
                                    side_exits += 1
                                if watchdog is not None:
                                    watchdog.poll(n)
                                ni = (ret >> 8) - 1
                                if ni < 0:
                                    break
                                nxt = table[ni]
                                if nxt.__class__ is not tuple:
                                    break  # cold/profiling leader: outer loop
                                n_max, fn = nxt
                            if ran:
                                continue
                            # Budget too tight for this block: retire its
                            # instructions one at a time below.
                handler = bound[index]
                if handler is None:
                    self.fetch(pc)  # raises the canonical IllegalInstruction
                if warm:
                    # Cold-code fallback still warms: branch-dense regions
                    # form short or cold blocks, so without this the
                    # predictor misses most of its training stream even
                    # when block coverage is high.  The record is built
                    # only for control/memory ops.
                    need = warm_need[index]
                    record = handler(self, need)
                    n += 1
                    fallback += 1
                    sink_h.warm_instruction(pc)
                    if need:
                        ma = record.mem_addr
                        if ma >= 0:
                            sink_h.warm_data(ma)
                        if record.inst.is_control:
                            sink_p.predict_and_train(record)
                else:
                    record = handler(self, emit)
                    n += 1
                    fallback += 1
                if watchdog is not None:
                    watchdog.poll(n)
                if emit:
                    yield record
        finally:
            context = _run_context()
            context.count("compiler.block_execs", execs)
            context.count("compiler.block_insts", insts)
            context.count("compiler.fallback_insts", fallback)
            context.count("compiler.side_exits", side_exits)

    def run(self, max_steps: int = 10_000_000, watchdog=None) -> int:
        """Run until halt or *max_steps*; returns instructions retired.

        *max_steps* is a soft window bound (exhausting it returns, as
        before).  An optional :class:`~repro.harness.watchdog.Watchdog`
        enforces hard step/wall-clock budgets, raising
        :class:`~repro.harness.errors.RunawayExecution` on breach.
        """
        start = self.instret
        # emit=False: the generator never yields, so this single next()
        # drives the whole run without per-instruction suspension.
        for _ in self._loop(max_steps, watchdog, False):  # pragma: no cover
            pass
        return self.instret - start

    def run_warm(self, max_steps: int = 10_000_000, watchdog=None) -> int:
        """Run like :meth:`run` while functionally warming caches and
        branch predictors; returns instructions retired.

        The statistical-sampling fast-forward path (SMARTS-style
        "functional warming"): hot code executes through warm-variant
        compiled blocks that touch the attached
        (:meth:`attach_warm_sink`) hierarchy on every memory operand and
        fetch-line transition and train the predictor on every control
        transfer, at block-compiled speed.  Cold-code fallback
        instructions warm through their trace records — branch-dense
        regions form short or cold blocks, so the fallback carries a
        disproportionate share of the predictor training stream.

        Requires ``dispatch='blocks'`` and an attached warm sink.
        """
        if self._engine is None:
            raise EmulatorError("run_warm requires dispatch='blocks'")
        if self._warm_sink is None:
            raise EmulatorError("run_warm requires attach_warm_sink() first")
        start = self.instret
        for _ in self._loop(max_steps, watchdog, False, warm=True):  # pragma: no cover
            pass
        return self.instret - start

    def trace(self, max_steps: int = 10_000_000, watchdog=None):
        """Yield :class:`TraceRecord` for each retired instruction.

        *watchdog* has the same semantics as in :meth:`run`.
        """
        yield from self._loop(max_steps, watchdog, True)

    @property
    def stdout(self) -> str:
        """Decoded output of the print syscalls."""
        return self.output.decode("latin-1")


__all__ = [
    "DISPATCH_ENV",
    "DISPATCH_TIERS",
    "EmulatorError",
    "IllegalInstruction",
    "Machine",
    "SYS_EXIT",
    "bits_from_f32",
    "default_dispatch",
    "f32_from_bits",
    "to_signed",
]
