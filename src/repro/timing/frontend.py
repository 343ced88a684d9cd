"""Front-end pass: a run's predictor and cache outcomes, walked once.

The timestamp model trains the gshare/BTB/RAS front end and walks the
Table 2 hierarchy in trace order.  What it learns there does not depend
on timing: which cache level serves a fetch line or a load, what the
§5.2 partial-tag compare selects, and whether a control transfer
mispredicts are functions of the record stream.  The fast timing path
(:mod:`repro.timing.fastpath`) therefore runs in two passes:

* the **front-end pass** (:meth:`FrontEndColumns.walk`) feeds the
  records through a predictor and hierarchy once and keeps one column
  per outcome;
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
forward, and the walk resumes after it.

A pass that met no hazard depends only on the records, the predictor
and cache geometry, ``lsq_size`` and the starting state, so every
config that agrees on :func:`front_end_key` and starts fresh replays one
set of columns (:func:`repro.timing.simulator.simulate_configs`); each
config applies its own latencies to the stored cache levels.
"""

from __future__ import annotations

from itertools import islice

from repro.isa.opclass import OpClass, op_class

#: Cache level that served an access; 0 in the fetch column when the
#: record stayed on the current fetch line.
L1, L2, MEMORY = 1, 2, 3

#: What the front end does with a record, by its static instruction.
OTHER, LOAD, STORE, CONTROL = 0, 1, 2, 3

#: Outcome-column value of a hazard load, whose access (if any) the
#: timing pass makes once it knows whether the load forwards.
HAZARD = -1


def record_kind(inst) -> int:
    """Front-end kind of a static instruction (:data:`LOAD` ... :data:`OTHER`)."""
    klass = op_class(inst.mnemonic)
    if klass is OpClass.LOAD:
        return LOAD
    if klass is OpClass.STORE:
        return STORE
    return CONTROL if inst.is_control else OTHER


def front_end_key(predictor, hierarchy, lsq_size: int) -> tuple:
    """Everything besides the records and the starting state that a
    hazard-free front-end pass depends on."""
    gshare, btb = predictor.gshare, predictor.btb
    return (
        gshare.entries, gshare.history_bits, btb.num_sets, btb.assoc, predictor.ras.depth,
        hierarchy.l1i.config, hierarchy.l1d.config, hierarchy.l2.config, lsq_size,
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

    def step(self, record, kind: int) -> tuple[int, int]:
        """Feed one record through; returns ``(fetch, outcome)``.

        *fetch* is the level serving a new fetch line (0: same line).
        *outcome* is :meth:`load`'s code for a load,
        ``mispredicted << 1 | predicted_taken`` for a control transfer
        and 0 otherwise.
        """
        pc = record.pc
        line = pc >> self._shift
        fetch = 0
        if line != self.line:
            self.line = line
            h = self.hierarchy
            fetch = L1 if h.l1i.access(pc) else L2 if h.l2.access(pc) else MEMORY
        if kind == OTHER:
            return fetch, 0
        if kind == LOAD:
            return fetch, self.load(record.mem_addr)
        if kind == STORE:
            self.hierarchy.warm_data(record.mem_addr)
            return fetch, 0
        outcome = self.predictor.predict_and_train(record)
        return fetch, outcome.mispredicted << 1 | outcome.predicted_taken

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

    ``static[i]`` indexes ``statics`` (the run's distinct instructions),
    ``fetch[i]`` and ``outcome[i]`` are :meth:`FrontEnd.step`'s results,
    and ``outcome[i]`` is :data:`HAZARD` where the walk stopped.
    """

    def __init__(self, front: FrontEnd, lsq_size: int, window) -> None:
        self.front = front
        self.statics: list = []
        self.static: list[int] = []
        self.fetch = bytearray()
        self.outcome: list[int] = []
        self.hazards = 0
        self._lsq_size = lsq_size
        self._index: dict[int, int] = {}
        self._kinds: list[int] = []
        # Stores a younger load may forward from: word -> ordinal of
        # its youngest store, seeded from the simulator's store window
        # (*window*, oldest first) so a run continues the one before.
        self._stores = 0
        self._store_words: dict[int, int] = {}
        for entry in window:
            self._stores += 1
            self._store_words[entry.addr & ~3] = self._stores

    def walk(self, records, start: int) -> int:
        """Extend the columns over ``records[start:]``; returns where it
        stopped: ``len(records)``, or one past a hazard load."""
        index = self._index
        statics = self.statics
        kinds = self._kinds
        static = self.static
        fetch = self.fetch
        outcome = self.outcome
        words = self._store_words
        lsq_size = self._lsq_size
        stores = self._stores
        step = self.front.step
        l1d = self.front.hierarchy.l1d
        stop = start
        for record in islice(records, start, None):
            stop += 1
            inst = record.inst
            # Keyed by identity: records share their decoded instruction,
            # and statics keeps each one alive for the whole walk.
            s = index.get(id(inst))
            if s is None:
                s = index[id(inst)] = len(statics)
                statics.append(inst)
                kinds.append(record_kind(inst))
            static.append(s)
            kind = kinds[s]
            if kind == STORE:
                stores += 1
                words[record.mem_addr & ~3] = stores
            elif kind == LOAD:
                addr = record.mem_addr
                youngest = words.get(addr & ~3)
                if youngest is not None and youngest > stores - lsq_size and not l1d.is_mru(addr):
                    f, _ = step(record, OTHER)
                    fetch.append(f)
                    outcome.append(HAZARD)
                    self.hazards += 1
                    break
            f, o = step(record, kind)
            fetch.append(f)
            outcome.append(o)
        self._stores = stores
        return stop


__all__ = [
    "CONTROL",
    "HAZARD",
    "L1",
    "L2",
    "LOAD",
    "MEMORY",
    "OTHER",
    "STORE",
    "FrontEnd",
    "FrontEndColumns",
    "front_end_key",
    "record_kind",
]
