"""Two-pass fast path for the timing layer.

A run of :class:`repro.timing.simulator.TimingSimulator` in fast mode
reads the columns of a :class:`~repro.emulator.trace.Trace` and is split
in two:

* a **front-end pass** (:mod:`repro.timing.frontend`) walks the trace
  over the gshare/BTB/RAS predictor and the cache hierarchy once and
  keeps one column per outcome: the cache level serving each
  fetch-line transition and each load, each load's §5.2 partial-tag
  resolving width, and each control transfer's
  ``(mispredicted, predicted_taken)``.  Configs that share predictor
  and cache geometry replay one pass
  (:func:`repro.timing.simulator.simulate_configs`,
  :func:`repro.timing.sampling.sample_configs`), so the timing pass
  reads every latency from its config, never from the hierarchy;
* a **timing pass** (:func:`run_fast`) replays the columns.
  :func:`bind_plan` gives each entry of the trace's static-instruction
  table (:func:`repro.timing.frontend.decode`, built once per trace) a
  **generated handler**: straight-line source from a template per
  instruction *shape* (op kind, slices, in-order or out-of-order slice
  issue, source and destination counts, the narrow-width flag),
  compiled once per process and bound to the simulator's scoreboard
  slots, issue pools, pool dicts and §5.3 early-branch flag as closure
  variables.
  A handler takes a record's index, reads the trace columns it needs,
  and inlines per-slice operand readiness, the Figure 8 chain, each
  issue-slot reservation (:meth:`BandwidthPool.reserve`'s floor check,
  dict probe, walk past full cycles and prune check), the slice claim
  and writeback.

Further mechanical optimisations of the timing pass:

* **flat timestamp scoreboard** — register slice-ready times live in
  one preallocated flat list indexed ``reg * S + slice``; an unsliced
  machine writes every slice of a register at once, so its handlers
  track slice 0 only;
* **incremental LSQ window** — the store window is pruned once per
  load (``commit <= dispatch`` entries pop from the left; both bounds
  are monotone, so the pruned deque *is* the reference's per-load
  ``[s for s in window if s.commit > dispatch]`` filter) and
  store-to-load forwarding is a word -> youngest-store dict lookup
  instead of a full window scan;
* **inlined fetch, commit and CPI waterfall** — fetch runs in the loop
  over locals, commit bandwidth is a count of the commits at the last
  commit cycle (commits never go backwards, so the bandwidth pool the
  reference reserves through reduces to that count), and each commit
  delta is split across the claims in the loop.

Only the §6 narrow-width relaxation (``_relax_narrow``) is shared with
the reference loop; slice scheduling, fetch and the load tail are
replicated.  The fast path is selected by default;
``REPRO_TIMING=reference`` (or ``TimingSimulator(..., mode="reference")``)
runs the original loop, kept verbatim as the golden model.
:func:`cross_check_timing` runs both modes over one trace and raises
:class:`TimingDivergence` on *any* stats or cycle-event mismatch.
"""

from __future__ import annotations

import os
from itertools import islice

from repro.branch.early import can_resolve_early
from repro.core.slicing import slices_containing_difference
from repro.isa.opclass import OpClass
from repro.obs.events import (
    COMMIT,
    CPI_SAMPLE,
    DISPATCH,
    EARLY_RELEASE,
    FETCH,
    REPLAY,
    SLICE_COMPLETE,
    WAY_MISPREDICT,
    EventTrace,
)
from repro.context import current as _run_context
from repro.obs.guestprof import SHORTFALL_PC, profile_delta
from repro.emulator.trace import Trace, as_trace
from repro.timing.frontend import (
    FORWARDED,
    L1,
    FrontEnd,
    FrontEndColumns,
    HazardDivergence,
    decode,
)
from repro.timing.resources import PRUNE_ABOVE, PRUNE_KEEP
from repro.timing.simulator import CPI_SAMPLE_INTERVAL, _StoreEntry
from repro.timing.stats import SimStats

#: Environment toggle, mirroring ``REPRO_DISPATCH``: unset or empty for
#: the fast path, ``reference`` for the golden loop.
TIMING_ENV = "REPRO_TIMING"

#: Timing-loop implementations: the production fast path, then the
#: golden reference.
TIMING_MODES = ("fast", "reference")


def default_timing_mode() -> str:
    """Timing-loop implementation selected by ``REPRO_TIMING``.

    Returns ``"fast"`` when the variable is unset or empty,
    ``"reference"`` for the golden loop.

    Raises:
        ValueError: for any other value, so a misspelt ``reference``
            cannot silently run the fast path.
    """
    value = os.environ.get(TIMING_ENV) or TIMING_MODES[0]
    if value not in TIMING_MODES:
        raise ValueError(
            f"{TIMING_ENV}={value!r}: expected unset, empty, 'reference' or 'fast'"
        )
    return value


class TimingDivergence(AssertionError):
    """Fast and reference timing paths disagreed (stats or events)."""


# ------------------------------------------------------------ generation
#
# Each static instruction runs through one generated handler: straight
# source from a small template per *shape* (what the handler does, the
# scoreboard slices it tracks, its source and destination counts and the
# feature flags it tests), never per register number.  A shape compiles
# once per process into a factory; binding an instruction calls the
# factory with its scoreboard slots, the issue pools and their dicts as
# closure variables.  What costs a handler at most one test per call
# (the early-branch flag) is a closure variable too, not a shape field:
# each shape is a compile, and a report compiles every shape it meets.

#: Handler factories compiled so far, by shape (see :func:`bind_plan`).
_FACTORIES: dict[tuple, object] = {}

_ALU_CLASSES = (OpClass.LOGIC, OpClass.ARITH, OpClass.SHIFT_LEFT, OpClass.SHIFT_RIGHT)

#: Classes whose slice k waits for the op's own slice k-1 (k+1 for
#: right shifts): the carry and shifted-in bits of Figure 8.
_CHAINED = (OpClass.ARITH, OpClass.SHIFT_LEFT, OpClass.SHIFT_RIGHT)


def _max_of(lines, var, slots):
    """``var = max(rr[slot] for slot in slots)``, 0 without slots."""
    if not slots:
        lines.append(f"{var} = 0")
        return
    lines.append(f"{var} = rr[{slots[0]}]")
    for slot in slots[1:]:
        lines.append(f"v = rr[{slot}]")
        lines.append(f"if v > {var}: {var} = v")


def _reserve(lines, k, grows):
    """:meth:`BandwidthPool.reserve` on issue pool *k*, inlined: moves
    ``r`` to the first cycle at or above it with a free slot.

    With *grows*, the prune check runs only when the reservation put a
    new cycle in the dict, the only time the dict grows; this is the
    reference's check after every reservation as long as a prune never
    leaves the dict above ``PRUNE_ABOVE``.  :func:`bind_plan` sets
    *grows* when ``ruu_size + PRUNE_KEEP <= PRUNE_ABOVE`` and
    ``frontend_depth >= dispatch_stage``, which bound what
    ``_prune(c - PRUNE_KEEP)`` keeps for a reservation at cycle ``c``
    by instruction *i*, fetched at ``F``:

    * the cycles from ``c - PRUNE_KEEP`` to ``c``: ``PRUNE_KEEP + 1``;
    * the cycles above ``c``: each instruction reserves once per pool,
      and only the ``ruu_size - 1`` instructions just before *i* can
      hold one.  An older instruction reserves below its commit, so
      below ``commit(i - ruu_size)``.  Fetch waits for that commit to
      free an RUU entry, so it is at most ``F + dispatch_stage``, and
      *i* reserves at or above ``F + frontend_depth`` (and so at or
      above ``F + dispatch_stage``).

    That is at most ``ruu_size + PRUNE_KEEP`` cycles.
    """
    lines += [
        f"if r < p{k}._floor: r = p{k}._floor",
        f"n = u{k}.get(r, 0)",
        "while n >= W:",
        "    r += 1",
        f"    n = u{k}.get(r, 0)",
        f"u{k}[r] = n + 1",
        f"if {'not n and ' if grows else ''}len(u{k}) > {PRUNE_ABOVE}: p{k}._prune(r - {PRUNE_KEEP})",
    ]


def _slices(lines, klass, S, in_order, nsrc, grows):
    """Figure 8 on *S* slice pipes (:meth:`TimingSimulator._schedule_sliced`).

    Sets ``c0`` .. ``c{S-1}`` (slice completions), ``complete`` (their
    maximum) and ``claim`` (the slice-wait claim).  Slices are issued in
    the reference's order, so the pools see the same reservations.  A
    chained slice waits for ``c`` of the slice before it, which is past
    ``earliest`` and equals that slice's start + 1, so in-order issue
    needs no code of its own; chained completions grow along the order,
    so the last is the maximum.
    """
    chained = klass in _CHAINED or in_order
    shift = klass is OpClass.SHIFT_LEFT or klass is OpClass.SHIFT_RIGHT
    prev = None
    for k in range(S - 1, -1, -1) if klass is OpClass.SHIFT_RIGHT else range(S):
        slots = [f"s{i}_{k}" for i in range(nsrc)]
        if not shift:
            _max_of(lines, "r", slots)
        else:  # shifted-in bits: every source slice from the first in order
            if prev is None:
                _max_of(lines, "m", slots)
            else:
                for slot in slots:
                    lines.append(f"v = rr[{slot}]")
                    lines.append("if v > m: m = v")
            lines.append("r = m")
        if chained and prev is not None:
            lines.append(f"if {prev} > r: r = {prev}")
        else:
            lines.append("if earliest > r: r = earliest")
        _reserve(lines, k, grows)
        if prev is None:
            lines.append("start = r")
        lines.append(f"c{k} = r + 1")
        prev = f"c{k}"
    lines.append(f"complete = {prev}")
    if not chained:
        lines += [f"if c{k} > complete: complete = c{k}" for k in range(S - 1)]
    lines.append("claim = complete - start - 1")


def _issue(lines, nsrc, width, unit, grows):
    """An atomic op, issued once its sources are whole: ``complete``."""
    _max_of(lines, "r", [f"s{i}_{k}" for i in range(nsrc) for k in range(width)])
    lines.append("if earliest > r: r = earliest")
    if unit:  # ExclusiveUnit.reserve
        lines += [
            "if unit._free_at > r: r = unit._free_at",
            "complete = r + lat",
            "unit._free_at = complete",
        ]
    else:
        _reserve(lines, 0, grows)
        lines.append("complete = r + lat")


def _agen(lines, nsrc, width, grows):
    """Address generation (:meth:`TimingSimulator._agen`): ``agen``,
    ``claim``.  Unsliced machines read only the full address."""
    if width > 1:
        _slices(lines, OpClass.ARITH, width, False, nsrc, grows)
        lines.append(f"agen = ({', '.join(f'c{k}' for k in range(width))},)")
    else:
        _issue(lines, nsrc, 1, False, grows)
        lines += ["agen = (complete,)", "claim = 0"]


def _source(shape) -> str:
    """Source of the handler factory for one *shape*.

    The handler is ``handler(i, earliest, dispatch, out)`` for record
    *i* of the trace, whose columns it reads, and returns ``(complete,
    result_times, resolve, lsd, ptm, memory, slice)``: the completion
    cycle, the per-slice result times a sliced ALU op publishes
    (*complete* otherwise), the control resolution cycle (``None`` off
    control transfers) and the instruction's CPI claims besides
    fetch's.  *grows* picks :func:`_reserve`'s prune check.
    """
    kind, width, nsrc, nwd, flags, grows = shape
    lines: list[str] = []
    columns = []  # the trace columns the handler reads
    times = "complete"
    resolve = "None"
    claims = "0, 0, 0, claim"
    scalar = True  # writes `complete` to every destination slice
    if kind == "direct":  # no issue slot: the cycle after the whole sources
        _max_of(lines, "r", [f"s{i}_{k}" for i in range(nsrc) for k in range(width)])
        lines.append("complete = (earliest if earliest > r else r) + 1")
        claims = "0, 0, 0, 0"
        resolve = "complete" if flags else "None"
    elif kind == "issue":  # unsliced ops, FULL units
        unit, is_branch = flags
        _issue(lines, nsrc, width, unit, grows)
        claims = "0, 0, 0, 0"
        resolve = "complete" if is_branch else "None"
    elif kind == "slices":  # sliceable ALU ops
        klass, in_order, narrow = flags
        _slices(lines, klass, width, in_order, nsrc, grows)
        times = "per"
        scalar = False
        per = f"[{', '.join(f'c{k}' for k in range(width))}]"
        if narrow:
            lines.append(f"per = relax({per}, result[i])")
            columns.append("result")
            lines += [f"rr[d{j}_0:d{j}_0 + {width}] = per" for j in range(nwd)]
        else:
            lines.append(f"per = {per}")
            lines += [f"rr[d{j}_{k}] = c{k}" for j in range(nwd) for k in range(width)]
    elif kind == "sign":  # slt family and sign-testing branches: the top slice
        _slices(lines, OpClass.ARITH, width, False, nsrc, grows)
        resolve = "complete" if flags else "None"
    elif kind == "zero":  # beq / bne, with §5.3 early resolution if `early`
        in_order = flags
        _slices(lines, OpClass.ZERO_TEST, width, in_order, nsrc, grows)
        pick = "per[diff[0]]" if in_order else "min([per[k] for k in diff])"
        lines += [
            "resolve = complete",
            "if early:",
            # The front end's gshare prediction, as the reference loop
            # reads it before training.
            "    predicted = out & 1 == 1",
            "    if predicted != taken[i] and can_resolve_early(mnem, predicted):",
            f"        diff = slices_containing_difference(rs_val[i], rt_val[i], {width})",
            "        if diff:",
            f"            per = ({', '.join(f'c{k}' for k in range(width))},)",
            f"            resolve = {pick}",
            "            if resolve < complete:",
            "                stats = sim.stats",
            "                stats.early_resolved_mispredicts += 1",
            "                extra = stats.extra",
            '                extra["early_branch_saved_cycles"] = (',
            '                    extra.get("early_branch_saved_cycles", 0) + (complete - resolve)',
            "                )",
        ]
        resolve = "resolve"
        columns += ["taken", "rs_val", "rt_val"]
    elif kind == "load":
        _agen(lines, nsrc, width, grows)
        lines.append("complete, lsd, ptm, mem = load_tail(i, agen, dispatch, out)")
        claims = "lsd, ptm, mem, claim"
    elif kind == "store":
        _agen(lines, nsrc, width, grows)
        # Data readiness reads the register the raw rt field names, as
        # the reference loop does (a GPR even for swc1).
        _max_of(lines, "data", [f"t{k}" for k in range(width)])
        lines += [
            "complete = agen[-1]",
            "if data > complete: complete = data",
            "addr = mem_addr[i]",
            # Committed by the loop once it knows the commit cycle.
            "entry = Entry(sim.seq, addr, agen, data, 0, dispatch)",
            "window.append(entry)",
            "fwd[addr & ~3] = entry",
        ]
        columns.append("mem_addr")
    else:  # pragma: no cover - bind_plan names every kind
        raise ValueError(f"unknown handler kind {kind!r}")
    if scalar:
        lines += [f"rr[d{j}_{k}] = complete" for j in range(nwd) for k in range(width)]
    lines.append(f"return complete, {times}, {resolve}, {claims}")

    out = [
        "def factory(rr, s, d, t, p, u, W, lat, unit, early, load_tail, relax, sim, window,"
        " fwd, Entry, mnem, trace):"
    ]
    out += [f"    {column} = trace.{column}" for column in columns]
    for tup, names in (
        ("s", [f"s{i}_{k}" for i in range(nsrc) for k in range(width)]),
        ("d", [f"d{j}_{k}" for j in range(nwd) for k in range(width)]),
        ("t", [f"t{k}" for k in range(width)] if kind == "store" else []),
        ("p", [f"p{k}" for k in range(width)]),
        ("u", [f"u{k}" for k in range(width)]),
    ):
        if names:
            out.append(f"    {', '.join(names)}, = {tup}")
    out.append("    def handler(i, earliest, dispatch, out):")
    out += [f"        {line}" for line in lines]
    out.append("    return handler")
    return "\n".join(out) + "\n"


def _factory(shape):
    """The compiled handler factory for *shape* (compiled on first use)."""
    factory = _FACTORIES.get(shape)
    if factory is None:
        env = {
            "can_resolve_early": can_resolve_early,
            "slices_containing_difference": slices_containing_difference,
        }
        exec(compile(_source(shape), f"<timing handler {shape[0]}>", "exec"), env)
        factory = _FACTORIES[shape] = env["factory"]
    return factory


def _full_unit(sim, m):
    """FULL-unit latency and exclusive unit (``None``: issue pool 0)."""
    cfg = sim.config
    ex = cfg.ex_stages
    if m in ("mult", "multu"):
        return max(cfg.int_mult_lat, ex), sim.multdiv
    if m in ("div", "divu"):
        return max(cfg.int_div_lat, ex), sim.multdiv
    if m == "mul.s":
        return max(cfg.fp_mult_lat, ex), sim.fp_muldiv
    if m == "div.s":
        return max(cfg.fp_div_lat, ex), sim.fp_muldiv
    if m == "sqrt.s":
        return max(cfg.fp_sqrt_lat, ex), sim.fp_muldiv
    if m.endswith(".s") or m.endswith(".w"):
        return max(cfg.fp_alu_lat, ex), None
    return ex, None


def bind_plan(sim, info, load_tail, trace):
    """Bind one static instruction to its generated handler.

    *info* is the instruction's :class:`~repro.timing.frontend.StaticInfo`
    in *trace*'s decode table (:func:`~repro.timing.frontend.decode`,
    built once per trace); this picks the config's handler shape and
    binds it.  Returns ``(handler, is_mem, is_control, is_branch,
    is_store)``; ``handler(i, earliest, dispatch, out)`` performs the
    execute stage of record *i* given its front-end outcome code *out*:
    operand readiness, the Figure 8 slice schedule with its issue-pool
    reservations, destination writeback to the flat scoreboard, and a
    store's LSQ entry.  It returns ``(complete, result_times, resolve,
    lsd, ptm, memory, slice)`` (:func:`_source`) exactly as the
    reference loop computes them.  Loads finish through *load_tail*
    (:func:`_load_tail_for`).

    An unsliced machine writes every register slice at once, so its
    handlers track slice 0 of each register only.
    """
    klass = info.klass
    is_branch = info.is_branch
    sliced = sim.sliced
    S = sim.num_slices
    width = S if sliced else 1
    lat = sim.config.ex_stages
    unit = None
    if info.nop:
        kind, flags = "direct", False
    elif klass in _ALU_CLASSES:
        if sliced:
            in_order = klass is OpClass.LOGIC and not sim.ooo_slices
            kind, flags = "slices", (klass, in_order, sim.narrow and info.writes)
        else:
            kind, flags = "issue", (False, False)
    elif klass is OpClass.COMPARE and not is_branch:
        kind, flags = ("sign", False) if sliced else ("issue", (False, False))
    elif klass is OpClass.FULL:
        lat, unit = _full_unit(sim, info.mnemonic)
        kind, flags = "issue", (unit is not None, False)
    elif klass is OpClass.LOAD:
        kind, flags = "load", None
    elif klass is OpClass.STORE:
        kind, flags = "store", None
    elif is_branch:
        if not sliced:
            kind, flags = "issue", (False, True)
        elif info.mnemonic in ("beq", "bne"):
            kind, flags = "zero", not sim.ooo_slices
        else:
            kind, flags = "sign", True
    else:  # j / jal; jr / jalr / syscall / break need whole registers
        kind, flags = "direct", klass is OpClass.JUMP
    # A source-less op reads $zero, whose slots are always 0, and so
    # shares the one-source shapes.
    srcs, dsts = info.srcs or (0,), info.dsts
    pools = tuple(sim.issue_pools[:width])
    cfg = sim.config
    grows = cfg.ruu_size + PRUNE_KEEP <= PRUNE_ABOVE and cfg.frontend_depth >= cfg.dispatch_stage
    handler = _factory((kind, width, len(srcs), len(dsts), flags, grows))(
        sim._rr,
        tuple(r * S + k for r in srcs for k in range(width)),
        tuple(r * S + k for r in dsts for k in range(width)),
        tuple(r * S + k for r in info.data for k in range(width)),
        pools,
        tuple(pool._used for pool in pools),
        cfg.issue_width,
        lat,
        unit,
        sim.early_branch,
        load_tail,
        sim._relax_narrow,
        sim,
        sim.store_window,
        sim._fwd,
        _StoreEntry,
        info.mnemonic,
        trace,
    )
    return handler, info.is_mem, info.is_control, is_branch, info.is_store


def _load_tail_for(sim, trace, columns, replaying):
    """Load disambiguation and memory access over the front-end columns.

    Replicates :meth:`TimingSimulator._lsd_release` and
    :meth:`TimingSimulator._load_access`, reading the cache level and
    the partial-tag resolving width from the load's *out* code instead
    of touching the hierarchy, and the latencies from the config.  A
    hazard load (*out* is ``HAZARD``) makes its access through the
    columns' front end only if it does not forward, exactly when the
    reference does, and records the decision in ``columns.decisions``.
    A run that *replays* the columns instead takes each recorded
    decision, after checking it would decide the same way
    (:class:`~repro.timing.frontend.HazardDivergence` otherwise).

    ``load_tail(i, agen, dispatch, out)`` for record *i* of *trace*
    returns ``(data_ready, lsd, ptm, memory)``: the cycle the data is
    ready and the load's disambiguation, way-mispredict and memory CPI
    claims.

    Equivalence of the incremental store window with the reference's
    per-load filter ``[s for s in window if s.commit > dispatch]``:

    * store commits and load dispatch cycles are both monotone
      non-decreasing in program order, so entries failing
      ``commit > dispatch`` once fail it forever — pruning them off the
      left of the deque is permanent;
    * the reference count cap (``lsq_size`` entries, oldest dropped) is
      applied identically here, and because the fast window is always a
      suffix of the reference window of equal-or-smaller length, the
      two windows hold exactly the same visible stores when a load
      looks (cap eviction only ever fires when both are full and
      identical);
    * the word -> youngest-store dict may retain popped entries, so a
      hit counts only when the entry is still in the window
      (``seq >= window[0].seq``); any older same-word store was
      appended earlier and therefore popped earlier, so a stale hit
      never masks a live older match.
    """
    cfg = sim.config
    window = sim.store_window
    fwd = sim._fwd
    early_lsd = sim.early_lsd
    spec_forward = sim.spec_forward
    ptm = sim.ptm
    sum_addressed = sim.sum_addressed
    slice_bits = sim.slice_bits
    low_slice = (1 << slice_bits) - 1
    events = sim.events
    obs_on = sim._obs_enabled
    first_seq = events.first_seq if obs_on else 0
    pcs = trace.pc
    addrs = trace.mem_addr
    l1_latency = cfg.l1_latency
    latency = (
        0,
        l1_latency,
        l1_latency + cfg.l2_latency,
        l1_latency + cfg.l2_latency + cfg.memory_latency,
    )
    replay = cfg.replay_penalty
    index_slice = sim.index_ready_slice
    l1d_config = sim.hierarchy.l1d.config
    tag_bits = (index_slice + 1) * slice_bits - l1d_config.tag_shift
    ptm_width = max(1, min(max(1, tag_bits), l1d_config.tag_bits))
    if replaying:
        recorded = iter(columns.decisions)

        def hazard(addr, forwarded):
            out = next(recorded)
            if forwarded != (out == FORWARDED):
                raise HazardDivergence(
                    f"{cfg.name}: hazard load {sim.seq} at {addr:#x} "
                    f"{'forwards' if forwarded else 'reads the cache'}, "
                    "unlike the run that walked the columns"
                )
            return out
    else:
        decide = columns.decisions.append
        front_load = columns.front.load

        def hazard(addr, forwarded):
            out = FORWARDED if forwarded else front_load(addr)
            decide(out)
            return out

    def load_tail(i, agen, dispatch, out):
        while window and window[0].commit <= dispatch:
            window.popleft()
        stats = sim.stats
        addr = addrs[i]
        a_full = agen[-1]
        release = lsd = 0
        if window:
            stats.lsd_searches += 1
            word = addr & ~3
            forward = fwd.get(word)
            if forward is not None and forward.seq >= window[0].seq:
                stats.store_forwards += 1
                if out < 0:  # HAZARD: forwarding skips the access
                    hazard(addr, True)
                if spec_forward:
                    # §5.1 extension: forward once this store is the
                    # unique partial matcher.
                    t_unique = max(agen[0], forward.agen_times[0])
                    for store in window:
                        if store is forward or (store.addr & ~3) == word:
                            continue
                        diff = (store.addr ^ addr) & ~3
                        k = ((diff & -diff).bit_length() - 1) // slice_bits
                        t_unique = max(t_unique, store.agen_times[k], agen[k])
                    extra = stats.extra
                    extra["spec_forwards"] = extra.get("spec_forwards", 0) + 1
                    return max(t_unique, forward.data_ready) + 1, 0, 0, 0
                return max(a_full, forward.agen_times[-1], forward.data_ready) + 1, 0, 0, 0
            if not early_lsd:
                for store in window:
                    t = store.agen_times[-1]
                    if t > release:
                        release = t
            else:
                # Early disambiguation (§5.1): rule each store out at
                # the first differing address slice.
                early_helped = False
                full = 0
                for store in window:
                    s_full = store.agen_times[-1]
                    if s_full > full:
                        full = s_full
                    diff = (store.addr ^ addr) & ~3
                    k = ((diff & -diff).bit_length() - 1) // slice_bits
                    t = store.agen_times[k]
                    if agen[k] > t:
                        t = agen[k]
                    if t < (s_full if s_full > a_full else a_full):
                        early_helped = True
                    if t > release:
                        release = t
                if release < full and early_helped:
                    stats.lsd_early_releases += 1
                    if obs_on and sim.seq >= first_seq:
                        events.emit(
                            EARLY_RELEASE, release, sim.seq, pcs[i],
                            {"full_release": full},
                        )
            if spec_forward:
                # A lone low-slice match that mismatches the full
                # address would have forwarded wrongly: replay.
                near = 0
                for store in window:
                    if not (store.addr ^ addr) & ~3 & low_slice:
                        near += 1
                if near == 1:
                    extra = stats.extra
                    extra["spec_forward_mispredicts"] = (
                        extra.get("spec_forward_mispredicts", 0) + 1
                    )
                    release = max(release, a_full) + replay
                    lsd = replay
                    if obs_on and sim.seq >= first_seq:
                        events.emit(
                            REPLAY, release, sim.seq, pcs[i], {"reason": "spec_forward"}
                        )
        if out < 0:  # HAZARD: the access waited on the forwarding decision
            out = hazard(addr, False)
        level = out & 3
        if ptm:
            index_ready = agen[index_slice]
            if sum_addressed:
                index_ready -= 1
            if release > index_ready:
                lsd += release - index_ready
            access_start = index_ready if index_ready > release else release
            settled = out >> 2 <= ptm_width
            stats.ptm_accesses += 1
            if level == L1:
                stats.l1d_hits += 1
                if settled:
                    stats.ptm_early_hits += 1
                    return access_start + l1_latency, lsd, 0, 0
                stats.ptm_way_mispredicts += 1
                if obs_on and sim.seq >= first_seq:
                    events.emit(
                        WAY_MISPREDICT, access_start + l1_latency, sim.seq, pcs[i],
                        {"addr": addr},
                    )
                return (
                    max(a_full, access_start + l1_latency) + l1_latency + replay,
                    lsd, l1_latency + replay, 0,
                )
            lat = latency[level]
            stats.l1d_misses += 1
            stats.load_replays += 1
            if obs_on and sim.seq >= first_seq:
                events.emit(
                    REPLAY, access_start + lat, sim.seq, pcs[i], {"reason": "l1d_miss"}
                )
            mem = (lat - l1_latency) + replay
            if settled:  # zero match: the miss is known early
                stats.ptm_early_misses += 1
                return access_start + lat + replay, lsd, 0, mem
            return max(a_full, access_start) + lat + replay, lsd, 0, mem

        index_time = a_full - 1 if sum_addressed else a_full
        if release > index_time:
            lsd += release - index_time
        access_start = index_time if index_time > release else release
        lat = latency[level]
        if level == L1:
            stats.l1d_hits += 1
            return access_start + lat, lsd, 0, 0
        stats.l1d_misses += 1
        stats.load_replays += 1
        if obs_on and sim.seq >= first_seq:
            events.emit(
                REPLAY, access_start + lat, sim.seq, pcs[i], {"reason": "l1d_miss"}
            )
        return access_start + lat + replay, lsd, 0, (lat - l1_latency) + replay

    return load_tail


# ------------------------------------------------------------- main loop

def _take(trace, limit):
    """The :class:`~repro.emulator.trace.Trace` a run simulates: all of
    *trace*, or its first *limit* records.  A trace is served as is or
    as a prefix; records (a sequence or an iterator, of which no more
    than *limit* are read) are converted to columns."""
    if limit is not None:
        limit = max(0, limit)
        trace = trace[:limit] if isinstance(trace, Trace) else islice(trace, limit)
    return as_trace(trace)


def run_fast(sim, trace, max_instructions=None, warmup=0, watchdog=None):
    """Fast-mode main loop for :class:`TimingSimulator`.

    Runs the two passes over the trace's columns: the front-end pass
    walks the records over the simulator's predictor and hierarchy (or
    the simulator replays the columns another run handed it, hazard
    decisions included), then the timing pass replays them through the
    generated handlers, bound from the trace's decode table
    (:func:`~repro.timing.frontend.decode`), with fetch, commit and the
    CPI waterfall (:func:`repro.obs.attribution.attribute_delta`)
    inlined.  Statement order and arithmetic mirror
    :meth:`TimingSimulator.run_reference`; the lockstep cross-check
    enforces bit-identity.
    """
    cfg = sim.config
    stats = sim.stats
    ev = sim.events
    gp = _run_context().collector
    prof: dict | None = {} if gp is not None else None
    obs_on = sim._obs_enabled
    first_seq = ev.first_seq if obs_on else 0
    emit_text = sim._emit_text
    if emit_text:
        from repro.isa.disassembler import format_instruction
    if watchdog is not None:
        watchdog.start()
    trace = _take(trace, None if max_instructions is None else max_instructions + warmup)
    n = len(trace)

    columns = sim._replay
    replaying = columns is not None
    if not replaying:
        front = FrontEnd(sim.predictor, sim.hierarchy, sim.current_fetch_line)
        columns = FrontEndColumns(front, cfg.lsq_size, sim.store_window)
        walked = columns.walk(trace, 0)
    else:
        sim._replay = None
        if len(columns.outcome) != n:
            raise ValueError(f"front-end columns cover {len(columns.outcome)} records, the run {n}")
        walked = n
    sim.front_end = columns
    load_tail = _load_tail_for(sim, trace, columns, replaying)
    plans = [bind_plan(sim, info, load_tail, trace) for info in decode(trace)]
    pcs = trace.pc
    statics = trace.statics

    commit_ring = sim.commit_ring
    mem_ring = sim.mem_commit_ring
    window = sim.store_window
    dispatch_stage = cfg.dispatch_stage
    frontend_depth = cfg.frontend_depth
    retire_stages = cfg.retire_stages
    ruu_size = cfg.ruu_size
    lsq_size = cfg.lsq_size
    fetch_width = cfg.fetch_width
    commit_width = cfg.commit_width
    # Stall a fetch-line transition served below the L1 adds, by level.
    fetch_penalty = (0, 0, cfg.l2_latency, cfg.l2_latency + cfg.memory_latency)

    # Free RUU and LSQ entries until the rings fill (they never drain).
    ruu_free = ruu_size - len(commit_ring)
    lsq_free = lsq_size - len(mem_ring)
    fetch_cycle = sim.fetch_cycle
    fetched = sim.fetched_this_cycle
    redirect_at = sim.redirect_at
    last = sim.last_commit
    # Commits are monotone, so the commit bandwidth pool reduces to a
    # count of the commits already at cycle `last`.
    at_last = sim._commits_at_last
    first_commit = sim.first_commit
    seq = sim.seq
    count = 0
    warm_commit = 0
    start = 0
    while start < n:
        for i, s, fl, out in zip(
            range(start, walked),
            islice(trace.static, start, walked),
            islice(columns.fetch, start, walked),
            islice(columns.outcome, start, walked),
        ):
            count += 1
            if watchdog is not None:
                watchdog.poll(count)
            if count == warmup:
                warm_commit = last
                stats = SimStats(config_name=cfg.name)
                sim.stats = stats
                if prof is not None:
                    prof.clear()
            seq += 1
            handler, is_mem, is_control, is_branch, is_store = plans[s]

            # ---------------- fetch (TimingSimulator._fetch) ----------------
            cb = cr = cq = cm = 0
            earliest = redirect_at
            if earliest > fetch_cycle:
                cb = earliest - fetch_cycle
            if ruu_free <= 0:
                free_at = commit_ring[0] - dispatch_stage
                if free_at > earliest:
                    stall = free_at - (earliest if earliest > fetch_cycle else fetch_cycle)
                    if stall > 0:
                        stats.ruu_stall_cycles += stall
                        cr = stall
                    earliest = free_at
            if is_mem:
                # The load tail and a store's LSQ entry read the sequence number.
                sim.seq = seq
                if lsq_free <= 0:
                    free_at = mem_ring[0] - dispatch_stage
                    if free_at > earliest:
                        stall = free_at - (earliest if earliest > fetch_cycle else fetch_cycle)
                        if stall > 0:
                            stats.lsq_stall_cycles += stall
                            cq = stall
                        earliest = free_at
            if earliest > fetch_cycle:
                fetch_cycle = earliest
                fetched = 0
            elif fetched >= fetch_width:
                fetch_cycle += 1
                fetched = 0
            if fl > L1:
                cm = fetch_penalty[fl]
                if cm > 0:
                    fetch_cycle += cm
                    fetched = 0
                else:
                    cm = 0
            fetched += 1
            F = fetch_cycle
            dispatch = F + dispatch_stage

            complete, result_times, resolve, cd, cp, cml, cs = handler(
                i, F + frontend_depth, dispatch, out
            )

            # ---------------- control redirect ----------------
            if is_control:
                if is_branch:
                    stats.branches += 1
                    if out & 2:
                        stats.branch_mispredicts += 1
                if out & 2:
                    redirect_at = resolve + 1
                elif out & 1:
                    fetch_cycle += 1
                    fetched = 0

            # ---------------- commit ----------------
            commit = complete + retire_stages
            if commit > last:
                at_last = 1
            elif at_last < commit_width:
                commit = last
                at_last += 1
            else:
                commit = last + 1
                at_last = 1
            delta = commit - last
            if delta:
                # The CPI waterfall (attribute_delta): each claim, in
                # priority order, takes what it can of the cycles left.
                cm += cml
                rem = delta
                if cb | cr | cq | cd | cp | cm:
                    if cb > 0:
                        take = cb if cb < rem else rem
                        stats.cpi_branch_recovery += take
                        rem -= take
                    if cr > 0 and rem:
                        take = cr if cr < rem else rem
                        stats.cpi_ruu_stall += take
                        rem -= take
                    if cq > 0 and rem:
                        take = cq if cq < rem else rem
                        stats.cpi_lsq_stall += take
                        rem -= take
                    if cd > 0 and rem:
                        take = cd if cd < rem else rem
                        stats.cpi_lsd_wait += take
                        rem -= take
                    if cp > 0 and rem:
                        take = cp if cp < rem else rem
                        stats.cpi_ptm_replay += take
                        rem -= take
                    if cm > 0 and rem:
                        take = cm if cm < rem else rem
                        stats.cpi_memory += take
                        rem -= take
                if cs > 0 and rem:
                    take = cs if cs < rem else rem
                    stats.cpi_slice_wait += take
                    rem -= take
                if rem:
                    stats.cpi_base += rem
                if prof is not None:
                    profile_delta(
                        prof, pcs[i], delta, (cb, cr, cq, cd, cp, cm, cs)
                    )
            last = commit
            if first_commit is None:
                first_commit = commit
            commit_ring.append(commit)
            ruu_free -= 1
            if is_mem:
                mem_ring.append(commit)
                lsq_free -= 1
                if is_store:
                    window[-1].commit = commit
                    stats.stores += 1
                else:
                    stats.loads += 1

            if obs_on and seq >= first_seq:
                pc = pcs[i]
                inst = statics[s]
                fetch_args: dict = {"mnemonic": inst.mnemonic}
                if emit_text:
                    fetch_args["text"] = format_instruction(inst, pc=pc)
                ev.emit(FETCH, F, seq, pc, fetch_args)
                ev.emit(DISPATCH, dispatch, seq, pc)
                if isinstance(result_times, list):
                    for k, t in enumerate(result_times):
                        ev.emit(SLICE_COMPLETE, t, seq, pc, {"slice": k})
                else:
                    ev.emit(SLICE_COMPLETE, complete, seq, pc, {"slice": 0})
                ev.emit(
                    COMMIT, commit, seq, pc,
                    {"complete": complete, "mispredicted": is_control and out & 2 == 2},
                )
                if seq % CPI_SAMPLE_INTERVAL == 0:
                    ev.emit(
                        CPI_SAMPLE, commit, seq, pc,
                        {
                            "base": stats.cpi_base,
                            "branch_recovery": stats.cpi_branch_recovery,
                            "ruu_stall": stats.cpi_ruu_stall,
                            "lsq_stall": stats.cpi_lsq_stall,
                            "lsd_wait": stats.cpi_lsd_wait,
                            "ptm_replay": stats.cpi_ptm_replay,
                            "memory": stats.cpi_memory,
                            "slice_wait": stats.cpi_slice_wait,
                        },
                    )
        # The walk stopped after a hazard load, whose access the timing
        # pass has now made or skipped: resume it there.
        start = walked
        if start < n:
            walked = columns.walk(trace, start)

    sim.fetch_cycle = fetch_cycle
    sim.fetched_this_cycle = fetched
    sim.redirect_at = redirect_at
    sim.current_fetch_line = columns.front.line
    sim.last_commit = last
    sim._commits_at_last = at_last
    sim.first_commit = first_commit
    sim.seq = seq
    stats.instructions = max(0, count - warmup)
    stats.cycles = max(1, last - warm_commit) if stats.instructions else 0
    if stats.instructions:
        attributed = (
            stats.cpi_base + stats.cpi_branch_recovery + stats.cpi_ruu_stall
            + stats.cpi_lsq_stall + stats.cpi_lsd_wait + stats.cpi_ptm_replay
            + stats.cpi_memory + stats.cpi_slice_wait
        )
        if attributed < stats.cycles:
            if prof is not None:
                profile_delta(prof, SHORTFALL_PC, stats.cycles - attributed, ())
            stats.cpi_base += stats.cycles - attributed
    else:
        stats.cpi_base = stats.cpi_branch_recovery = stats.cpi_ruu_stall = 0
        stats.cpi_lsq_stall = stats.cpi_lsd_wait = stats.cpi_ptm_replay = 0
        stats.cpi_memory = stats.cpi_slice_wait = 0
        if prof is not None:
            prof.clear()
    if gp is not None:
        gp.add_cycles(prof, stats.cycles)
    return stats


# ---------------------------------------------------------- cross-checks

def _diff_dicts(label: str, ref: dict, fast: dict) -> None:
    if ref == fast:
        return
    keys = sorted(set(ref) | set(fast))
    diffs = [
        f"  {k}: reference={ref.get(k)!r} fast={fast.get(k)!r}"
        for k in keys
        if ref.get(k) != fast.get(k)
    ]
    raise TimingDivergence(
        f"{label} diverged between timing modes:\n" + "\n".join(diffs)
    )


def _diff_events(ref_events, fast_events) -> None:
    re_, fe = list(ref_events), list(fast_events)
    if re_ == fe:
        return
    for i, (a, b) in enumerate(zip(re_, fe)):
        if a != b:
            raise TimingDivergence(
                f"cycle-event stream diverged at event {i}:\n"
                f"  reference: {a}\n  fast:      {b}"
            )
    raise TimingDivergence(
        f"cycle-event stream lengths diverged: reference={len(re_)} fast={len(fe)}"
    )


def cross_check_timing(config, trace, max_instructions=None, warmup=0):
    """Run both :class:`TimingSimulator` modes over *trace* in lockstep.

    Compares the full ``SimStats`` dict and the complete (unbounded)
    cycle-event streams — every fetch/dispatch/slice/commit timestamp
    of every instruction — and raises :class:`TimingDivergence` on any
    difference.  Returns the fast path's stats on agreement.
    """
    from repro.timing.simulator import TimingSimulator

    trace = as_trace(trace)
    ref = TimingSimulator(config, events=EventTrace(capacity=None), mode="reference")
    fast = TimingSimulator(config, events=EventTrace(capacity=None), mode="fast")
    ref_stats = ref.run(trace, max_instructions, warmup=warmup)
    fast_stats = fast.run(trace, max_instructions, warmup=warmup)
    _diff_dicts(f"SimStats[{config.name}]", ref_stats.to_dict(), fast_stats.to_dict())
    _diff_events(ref.events, fast.events)
    return fast_stats


__all__ = [
    "TIMING_ENV",
    "TIMING_MODES",
    "TimingDivergence",
    "bind_plan",
    "cross_check_timing",
    "default_timing_mode",
    "run_fast",
]
