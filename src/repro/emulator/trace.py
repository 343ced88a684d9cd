"""Dynamic traces: one record per retired instruction.

A :class:`TraceRecord` captures everything the downstream consumers
need about one retired instruction: the decoded instruction, its input
operand values, the produced result, the effective memory address (for
loads/stores) and the control-flow outcome.  The characterization
studies (paper Figures 2, 4, 6) are trace-driven over these records, as
in the paper's methodology (§4: "We use a trace driven simulator for
our characterization work").

The emulator yields records one at a time; everything that keeps a
trace (the runner's layers, the trace cache, a sampled window) holds
it as a :class:`Trace`, the same fields as columns.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from itertools import islice

from repro.isa.instructions import MEM_WIDTH, Instruction


@dataclass(frozen=True, slots=True)
class TraceRecord:
    """One retired instruction with its dynamic context.

    Attributes:
        pc: fetch address.
        inst: the decoded instruction.
        rs_val, rt_val: source register values read (32-bit unsigned
            images; meaningless for formats that do not read them).
        result: primary result value (register result, store data, or
            LO for multiply/divide).
        mem_addr: effective address for loads/stores, ``-1`` otherwise.
        taken: control-transfer outcome (True for taken branches and
            every jump).
        next_pc: architectural successor PC.
    """

    pc: int
    inst: Instruction
    rs_val: int
    rt_val: int
    result: int
    mem_addr: int
    taken: bool
    next_pc: int

    @property
    def is_load(self) -> bool:
        return self.inst.is_load

    @property
    def is_store(self) -> bool:
        return self.inst.is_store

    @property
    def is_branch(self) -> bool:
        return self.inst.is_branch

    @property
    def mem_size(self) -> int:
        """Bytes transferred, or 0 for non-memory instructions."""
        return MEM_WIDTH.get(self.inst.mnemonic, 0)

    @property
    def fallthrough_pc(self) -> int:
        return self.pc + 4


#: A :class:`Trace`'s value columns, one entry per record, in
#: :class:`TraceRecord` field order (``inst`` is ``static``/``statics``).
COLUMNS = ("pc", "rs_val", "rt_val", "result", "mem_addr", "taken", "next_pc")


class Trace(Sequence):
    """A dynamic trace as columns (struct of arrays).

    ``pc``, ``rs_val``, ``rt_val``, ``result``, ``mem_addr``, ``taken``
    and ``next_pc`` are Python lists holding :class:`TraceRecord`'s
    fields; record *i*'s instruction is ``statics[static[i]]``, so each
    distinct decoded instruction appears once in ``statics``.  Columns
    may run past ``len(trace)``: a prefix (``trace[:m]``) shares its
    parent's column lists instead of copying them, so readers stop at
    ``len(trace)``.  ``memo`` holds tables derived from ``statics``
    (the timing layer's decode table), shared with prefixes.

    It is also a read-only sequence of :class:`TraceRecord`: indexing
    and iteration build records on demand, for the golden models and
    the tests.  Production paths read the columns.
    """

    __slots__ = ("pc", "static", "statics", "rs_val", "rt_val", "result",
                 "mem_addr", "taken", "next_pc", "memo", "_n")

    def __init__(self, pc, static, statics, rs_val, rt_val, result, mem_addr, taken,
                 next_pc, n: int | None = None, memo: dict | None = None) -> None:
        self.pc = pc
        self.static = static
        self.statics = statics
        self.rs_val = rs_val
        self.rt_val = rt_val
        self.result = result
        self.mem_addr = mem_addr
        self.taken = taken
        self.next_pc = next_pc
        self._n = len(pc) if n is None else n
        self.memo = {} if memo is None else memo

    @classmethod
    def from_records(cls, records) -> Trace:
        """Columns of an iterable of :class:`TraceRecord` (consumed once)."""
        records = records if isinstance(records, (list, tuple)) else list(records)
        insts = [r.inst for r in records]
        # Keyed by identity: records share their decoded instruction,
        # and `insts` keeps each one alive while the ids are in use.
        index: dict[int, int] = {}
        static = [index.setdefault(id(inst), len(index)) for inst in insts]
        statics = list({id(inst): inst for inst in insts}.values())
        return cls(
            [r.pc for r in records], static, statics,
            [r.rs_val for r in records], [r.rt_val for r in records],
            [r.result for r in records], [r.mem_addr for r in records],
            [r.taken for r in records], [r.next_pc for r in records],
        )

    def __len__(self) -> int:
        return self._n

    def __getitem__(self, i):
        n = self._n
        if isinstance(i, slice):
            start, stop, step = i.indices(n)
            if start == 0 and step == 1:  # a prefix shares the columns
                return self if stop >= n else Trace(
                    self.pc, self.static, self.statics, self.rs_val, self.rt_val,
                    self.result, self.mem_addr, self.taken, self.next_pc,
                    n=stop, memo=self.memo,
                )
            return Trace.from_records(map(self.__getitem__, range(start, stop, step)))
        if i < 0:
            i += n
        if not 0 <= i < n:
            raise IndexError("trace index out of range")
        return TraceRecord(
            self.pc[i], self.statics[self.static[i]], self.rs_val[i], self.rt_val[i],
            self.result[i], self.mem_addr[i], self.taken[i], self.next_pc[i],
        )

    def __iter__(self):
        statics = self.statics
        for pc, s, rs, rt, res, addr, taken, nxt in islice(
            zip(self.pc, self.static, self.rs_val, self.rt_val, self.result,
                self.mem_addr, self.taken, self.next_pc),
            self._n,
        ):
            yield TraceRecord(pc, statics[s], rs, rt, res, addr, taken, nxt)

    def __eq__(self, other) -> bool:
        """Record-for-record equality with a trace, list or tuple."""
        if not isinstance(other, (Trace, list, tuple)):
            return NotImplemented
        return len(self) == len(other) and all(a == b for a, b in zip(self, other))

    __hash__ = None

    def __repr__(self) -> str:
        return f"<Trace of {self._n} records, {len(self.statics)} static instructions>"


def as_trace(records) -> Trace:
    """*records* as a :class:`Trace`: a trace itself, or the columns of
    an iterable of :class:`TraceRecord`."""
    return records if isinstance(records, Trace) else Trace.from_records(records)


def trace_program(program, max_steps: int = 10_000_000, skip: int = 0):
    """Convenience generator: run *program* and yield trace records.

    Args:
        program: an assembled :class:`~repro.isa.assembler.Program`.
        max_steps: instruction budget after the skip window.
        skip: instructions to fast-forward before tracing begins
            (the paper fast-forwards 1B instructions; we expose the
            same knob at a feasible scale).
    """
    from repro.emulator.machine import Machine

    machine = Machine(program)
    if skip:
        machine.run(skip)
    yield from machine.trace(max_steps)
