"""Front-end pass: a run's predictor and cache outcomes, walked once.

The timestamp model trains the gshare/BTB/RAS front end and walks the
Table 2 hierarchy in trace order.  What it learns there does not depend
on timing: which cache level serves a fetch line or a load, what the
§5.2 partial-tag compare selects, and whether a control transfer
mispredicts are functions of the record stream.  The fast timing path
(:mod:`repro.timing.fastpath`) therefore runs in two passes:

* the **front-end pass** (:meth:`FrontEndColumns.walk`) feeds a
  trace's columns through a predictor and hierarchy once and keeps one
  column per outcome;
* the **timing pass** replays those columns under the config's
  latencies and pipeline.

One outcome does depend on timing: a load that forwards from a store
still in flight skips the cache, and whether it forwards depends on
when that store commits.  Skipping an access to its set's MRU line
changes nothing but the hit count, so the pass makes every load access
except at a *hazard*: a load whose line is not the MRU way of its L1D
set while a store to the same word is among the last ``lsq_size``
stores (the only stores it can forward from).  At a hazard the walk
stops; the timing pass decides, makes the access if the load does not
forward, records its decision in the columns, and the walk resumes
after it.

A pass depends only on the records, the predictor and cache geometry,
``lsq_size``, the starting state and its hazard decisions, so every
config that agrees on :func:`front_end_key` and starts from the same
state can replay one set of columns; each config applies its own
latencies to the stored cache levels.  A replaying config decides each
hazard load itself and raises :class:`HazardDivergence` where it would
decide differently (:func:`repro.timing.sampling.sample_configs` then
runs it on its own).  :func:`repro.timing.simulator.simulate_configs`
shares only passes that met no hazard.
"""

from __future__ import annotations

from typing import NamedTuple

from repro.branch.predictor import mispredicted
from repro.isa.opclass import OpClass, op_class
from repro.memsys.hierarchy import L1D_CONFIG, L1I_CONFIG, L2_CONFIG

#: Cache level that served an access; 0 in the fetch column when the
#: record stayed on the current fetch line.
L1, L2, MEMORY = 1, 2, 3

#: What the front end does with a record, by its static instruction.
OTHER, LOAD, STORE, CONTROL = 0, 1, 2, 3

#: Outcome-column value of a hazard load, whose access (if any) the
#: timing pass makes once it knows whether the load forwards.
HAZARD = -1

#: Hazard decision of a load that forwarded and so made no access; any
#: other decision is the outcome code of the access (:meth:`FrontEnd.load`).
FORWARDED = 0


class HazardDivergence(Exception):
    """A config replaying another run's columns would decide a hazard
    load differently, so the cache state after it would differ."""


def record_kind(inst) -> int:
    """Front-end kind of a static instruction (:data:`LOAD` ... :data:`OTHER`)."""
    klass = op_class(inst.mnemonic)
    if klass is OpClass.LOAD:
        return LOAD
    if klass is OpClass.STORE:
        return STORE
    return CONTROL if inst.is_control else OTHER


class StaticInfo(NamedTuple):
    """What both passes need of one static instruction (:func:`decode`)."""

    mnemonic: str
    klass: OpClass
    kind: int                #: front-end kind (:func:`record_kind`)
    nop: bool
    srcs: tuple[int, ...]    #: registers the execute stage reads, ``$0`` dropped
    dsts: tuple[int, ...]    #: registers written, ``$0`` dropped
    writes: bool             #: names a destination register, ``$0`` included
    data: tuple[int, ...]    #: a store's data register, as the raw rt field names it
    is_mem: bool
    is_control: bool
    is_branch: bool
    is_store: bool


def _static_info(inst) -> StaticInfo:
    klass = op_class(inst.mnemonic)
    nop = klass is OpClass.NOP or inst.is_nop
    is_store = klass is OpClass.STORE
    srcs = inst.src_regs()
    if nop:
        srcs = ()
    elif is_store:
        srcs = srcs[:1]  # address generation reads the base register only
    dsts = inst.dst_regs()
    return StaticInfo(
        inst.mnemonic, klass, record_kind(inst), nop,
        tuple(r for r in srcs if r), tuple(r for r in dsts if r), bool(dsts),
        (inst.rt,) if is_store else (),
        klass is OpClass.LOAD or is_store, inst.is_control, inst.is_branch, is_store,
    )


def decode(trace) -> list[StaticInfo]:
    """*trace*'s static-instruction table, one :class:`StaticInfo` per
    entry of ``trace.statics``: built once per trace and kept in its
    ``memo``, which its prefixes share, for every config's run."""
    table = trace.memo.get("timing")
    if table is None:
        table = trace.memo["timing"] = [_static_info(inst) for inst in trace.statics]
    return table


def front_end_key(config) -> tuple:
    """Everything besides the records and the starting state that a
    hazard-free front-end pass under *config* depends on: the geometry
    of the gshare (its history length follows from its entry count),
    BTB and RAS a simulator builds from *config*, the fixed Table 2
    caches, and ``lsq_size``."""
    return (
        config.gshare_entries, config.btb_entries, config.btb_assoc, config.ras_depth,
        L1I_CONFIG, L1D_CONFIG, L2_CONFIG, config.lsq_size,
    )


class FrontEnd:
    """A predictor and cache hierarchy fed records in trace order.

    :meth:`step` is the timing model's per-record traversal: one I-side
    access per fetch-line transition, then the data access of a load or
    store, or predictor training on a control transfer.  Functional
    warming (:class:`repro.timing.sampling.WarmState`) and the
    front-end pass both run it.
    """

    __slots__ = ("predictor", "hierarchy", "line", "_shift")

    def __init__(self, predictor, hierarchy, line: int = -1) -> None:
        self.predictor = predictor
        self.hierarchy = hierarchy
        self.line = line  #: current fetch line (-1: none yet)
        self._shift = hierarchy.l1i.config.offset_bits

    def step(self, pc: int, kind: int, addr: int = -1, inst=None, taken: bool = False,
             target: int = 0) -> tuple[int, int]:
        """Feed one record through; returns ``(fetch, outcome)``.

        The record is at *pc*, of front-end *kind*; a load or store
        accesses *addr*, and a control transfer (*inst*) goes to
        *target*, *taken* or not.  *fetch* is the level serving a new
        fetch line (0: same line).  *outcome* is :meth:`load`'s code for
        a load, ``mispredicted << 1 | predicted_taken`` for a control
        transfer and 0 otherwise.
        """
        line = pc >> self._shift
        fetch = 0
        if line != self.line:
            self.line = line
            h = self.hierarchy
            fetch = L1 if h.l1i.access(pc) else L2 if h.l2.access(pc) else MEMORY
        if kind == OTHER:
            return fetch, 0
        if kind == LOAD:
            return fetch, self.load(addr)
        if kind == STORE:
            self.hierarchy.warm_data(addr)
            return fetch, 0
        predicted_taken, predicted_target = self.predictor.predict(pc, inst, taken, target)
        return fetch, mispredicted(predicted_taken, predicted_target, taken, target) << 1 | predicted_taken

    def load(self, addr: int) -> int:
        """A load's data access: ``resolving_width << 2 | level``, the
        partial-tag width taken before the access
        (:meth:`~repro.memsys.cache.SetAssociativeCache.resolving_width`)."""
        h = self.hierarchy
        l1d = h.l1d
        width = l1d.resolving_width(addr)
        return width << 2 | (L1 if l1d.access(addr) else L2 if h.l2.access(addr) else MEMORY)


class FrontEndColumns:
    """One run's front-end outcomes, one entry per record.

    ``fetch[i]`` and ``outcome[i]`` are :meth:`FrontEnd.step`'s results
    for record *i* of the trace walked, and ``outcome[i]`` is
    :data:`HAZARD` where the walk stopped.  ``decisions`` holds the
    timing pass's decision at each hazard load, in order:
    :data:`FORWARDED` or the outcome code of its access.
    """

    def __init__(self, front: FrontEnd, lsq_size: int, window) -> None:
        self.front = front
        self.fetch = bytearray()
        self.outcome: list[int] = []
        self.decisions: list[int] = []
        self.hazards = 0
        self._lsq_size = lsq_size
        # Stores a younger load may forward from: word -> ordinal of
        # its youngest store, seeded from the simulator's store window
        # (*window*, oldest first) so a run continues the one before.
        self._stores = 0
        self._store_words: dict[int, int] = {}
        for entry in window:
            self._stores += 1
            self._store_words[entry.addr & ~3] = self._stores

    def walk(self, trace, start: int) -> int:
        """Extend the columns over records ``start:`` of *trace* (a
        :class:`~repro.emulator.trace.Trace`, read by column); returns
        where it stopped: ``len(trace)``, or one past a hazard load."""
        kinds = [info.kind for info in decode(trace)]
        statics = trace.statics
        static = trace.static
        pcs = trace.pc
        addrs = trace.mem_addr
        taken = trace.taken
        targets = trace.next_pc
        fetch = self.fetch
        outcome = self.outcome
        words = self._store_words
        lsq_size = self._lsq_size
        stores = self._stores
        step = self.front.step
        l1d = self.front.hierarchy.l1d
        n = len(trace)
        for i in range(start, n):
            s = static[i]
            kind = kinds[s]
            if kind == CONTROL:
                f, o = step(pcs[i], CONTROL, -1, statics[s], taken[i], targets[i])
            elif kind == OTHER:
                f, o = step(pcs[i], OTHER)
            else:
                addr = addrs[i]
                if kind == STORE:
                    stores += 1
                    words[addr & ~3] = stores
                else:
                    youngest = words.get(addr & ~3)
                    if youngest is not None and youngest > stores - lsq_size and not l1d.is_mru(addr):
                        f, _ = step(pcs[i], OTHER)
                        fetch.append(f)
                        outcome.append(HAZARD)
                        self.hazards += 1
                        self._stores = stores
                        return i + 1
                f, o = step(pcs[i], kind, addr)
            fetch.append(f)
            outcome.append(o)
        self._stores = stores
        return n


__all__ = [
    "CONTROL",
    "FORWARDED",
    "HAZARD",
    "L1",
    "L2",
    "LOAD",
    "MEMORY",
    "OTHER",
    "STORE",
    "FrontEnd",
    "FrontEndColumns",
    "HazardDivergence",
    "StaticInfo",
    "decode",
    "front_end_key",
    "record_kind",
]
