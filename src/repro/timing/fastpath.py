"""Two-pass fast path for the timing layer.

A run of :class:`repro.timing.simulator.TimingSimulator` in fast mode
is split in two:

* a **front-end pass** (:mod:`repro.timing.frontend`) walks the records
  over the gshare/BTB/RAS predictor and the cache hierarchy once and
  keeps one column per outcome: a static-instruction index, the cache
  level serving each fetch-line transition and each load, each load's
  §5.2 partial-tag resolving width, and each control transfer's
  ``(mispredicted, predicted_taken)``.  Configs that share predictor
  and cache geometry replay one pass
  (:func:`repro.timing.simulator.simulate_configs`);
* a **timing pass** (:func:`run_fast`) replays the columns.  The first
  time a static instruction is seen, :func:`bind_plan` resolves its op
  class, source/destination register tuples, FULL-unit latency and
  slice order **once** and captures them in a specialized closure,
  kept in a list indexed by the static index.

Further mechanical optimisations of the timing pass:

* **flat timestamp scoreboard** — register slice-ready times live in
  one preallocated flat list indexed ``reg * S + slice``, so operand
  reads are slice copies instead of nested loops over a list-of-lists,
  and destination writes are in-place stores instead of per-dst
  ``list(...)`` copies;
* **incremental LSQ window** — the store window is pruned once per
  load (``commit <= dispatch`` entries pop from the left; both bounds
  are monotone, so the pruned deque *is* the reference's per-load
  ``[s for s in window if s.commit > dispatch]`` filter) and
  store-to-load forwarding is a word -> youngest-store dict lookup
  instead of a full window scan;
* **inlined fetch and monotone commit** — fetch runs in the loop over
  locals, and commit bandwidth is a count of the commits at the last
  commit cycle: commits never go backwards, so the bandwidth pool the
  reference reserves through reduces to that count.

Only Figure 8 slice scheduling (``_schedule_sliced``'s semantics, in
specialized closures) and the §6 narrow-width relaxation
(``_relax_narrow``) are shared with the reference loop; fetch and the
load tail are replicated over the columns.  The fast path is selected
by default; ``REPRO_TIMING=reference`` (or
``TimingSimulator(..., mode="reference")``) runs the original loop,
kept verbatim as the golden model.  :func:`cross_check_timing` runs
both modes over one trace and raises :class:`TimingDivergence` on
*any* stats or cycle-event mismatch.
"""

from __future__ import annotations

import os
from itertools import islice

from repro.branch.early import can_resolve_early
from repro.core.slicing import slices_containing_difference
from repro.isa.opclass import OpClass, op_class
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
from repro.obs.attribution import attribute_delta
from repro.obs.guestprof import SHORTFALL_PC, profile_delta
from repro.obs.guestprof import active_collector as _guest_collector
from repro.timing.frontend import L1, FrontEnd, FrontEndColumns
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


# --------------------------------------------------------------- binding

_ALU_CLASSES = (OpClass.LOGIC, OpClass.ARITH, OpClass.SHIFT_LEFT, OpClass.SHIFT_RIGHT)


def _sched_for(sim, klass):
    """Specialized Figure 8 slice scheduler for one op class.

    Each closure replays :meth:`TimingSimulator._schedule_sliced` for a
    fixed *klass* with the per-slice class branches, the ``order``
    object and the operand-window slice copies resolved at bind time.
    Correctness notes against the reference:

    * for ARITH / SHIFT_LEFT / SHIFT_RIGHT the intra-instruction chain
      forces ``ready >= complete[prev] == prev_start + 1``, so the
      explicit in-order rule is subsumed and one closure serves both
      slice-issue disciplines;
    * the chains also make per-slice completions monotone along the
      iteration order, so ``max(complete)`` is the last computed value;
    * reservation calls hit the per-slice pools in the reference's
      exact order, keeping the bandwidth-pool state bit-identical.
    """
    scheds = sim._scheds
    sched = scheds.get(klass)
    if sched is not None:
        return sched
    S = sim.num_slices
    pools = [p.reserve for p in sim.issue_pools]
    ks = tuple(range(1, S))
    if klass is OpClass.ARITH:
        r0 = pools[0]

        def sched(earliest, sr):
            ready = sr[0]
            if earliest > ready:
                ready = earliest
            start = r0(ready)
            c = start + 1
            out = [c]
            append = out.append
            for k in ks:
                ready = sr[k]
                if c > ready:
                    ready = c
                if earliest > ready:
                    ready = earliest
                c = pools[k](ready) + 1
                append(c)
            sim._claim_slice += c - start - 1
            return out
    elif klass is OpClass.SHIFT_LEFT:
        r0 = pools[0]

        def sched(earliest, sr):
            m = sr[0]
            ready = m if m > earliest else earliest
            start = r0(ready)
            c = start + 1
            out = [c]
            append = out.append
            for k in ks:
                v = sr[k]
                if v > m:
                    m = v
                ready = m
                if c > ready:
                    ready = c
                if earliest > ready:
                    ready = earliest
                c = pools[k](ready) + 1
                append(c)
            sim._claim_slice += c - start - 1
            return out
    elif klass is OpClass.SHIFT_RIGHT:
        top = S - 1
        rt = pools[top]
        ks_down = tuple(range(S - 2, -1, -1))

        def sched(earliest, sr):
            m = sr[top]
            ready = m if m > earliest else earliest
            start = rt(ready)
            c = start + 1
            out = [0] * S
            out[top] = c
            for k in ks_down:
                v = sr[k]
                if v > m:
                    m = v
                ready = m
                if c > ready:
                    ready = c
                if earliest > ready:
                    ready = earliest
                c = pools[k](ready) + 1
                out[k] = c
            sim._claim_slice += c - start - 1
            return out
    else:  # LOGIC / ZERO_TEST: independent slices, no chain
        r0 = pools[0]
        if sim.ooo_slices:
            def sched(earliest, sr):
                ready = sr[0]
                if earliest > ready:
                    ready = earliest
                start = r0(ready)
                c = start + 1
                out = [c]
                append = out.append
                mx = c
                for k in ks:
                    ready = sr[k]
                    if earliest > ready:
                        ready = earliest
                    c = pools[k](ready) + 1
                    if c > mx:
                        mx = c
                    append(c)
                sim._claim_slice += mx - start - 1
                return out
        else:
            def sched(earliest, sr):
                ready = sr[0]
                if earliest > ready:
                    ready = earliest
                prev = r0(ready)
                c = prev + 1
                out = [c]
                append = out.append
                start = prev
                mx = c
                for k in ks:
                    ready = sr[k]
                    if c > ready:  # prev_start + 1 == c for unit-latency slices
                        ready = c
                    if earliest > ready:
                        ready = earliest
                    prev = pools[k](ready)
                    c = prev + 1
                    if c > mx:
                        mx = c
                    append(c)
                sim._claim_slice += mx - start - 1
                return out
    scheds[klass] = sched
    return sched


def bind_plan(sim, inst, load_tail):
    """Bind one static instruction to its specialized scheduler.

    Returns ``(handler, is_mem, is_control, is_branch, is_store)``;
    ``handler(record, earliest_exec, dispatch, out)`` performs the
    execute stage (including destination writeback to the flat
    scoreboard) given the record's front-end outcome code *out*, and
    returns ``(complete, result_times, resolve)`` exactly as the
    reference loop computes them.  Loads finish through *load_tail*
    (:func:`_load_tail_for`).
    """
    cfg = sim.config
    S = sim.num_slices
    rr = sim._rr
    m = inst.mnemonic
    klass = op_class(m)
    is_mem = klass is OpClass.LOAD or klass is OpClass.STORE
    is_store = klass is OpClass.STORE
    is_branch = inst.is_branch
    is_control = inst.is_control
    srcs = inst.src_regs()
    dsts = inst.dst_regs()
    has_dsts = bool(dsts)
    wdsts = tuple(r * S for r in dsts if r != 0)
    sliced = sim.sliced
    narrow = sim.narrow
    relax = sim._relax_narrow
    reserve0 = sim.issue_pools[0].reserve
    ex_stages = cfg.ex_stages

    # --- source readiness readers over the flat scoreboard ---
    if not srcs:
        def src_ready():
            return [0] * S

        def full_ready():
            return 0
    elif len(srcs) == 1:
        b0 = srcs[0] * S

        def src_ready():
            return rr[b0:b0 + S]

        def full_ready():
            return max(rr[b0:b0 + S])
    else:
        bases = tuple(r * S for r in srcs)

        def src_ready():
            out = rr[bases[0]:bases[0] + S]
            for b in bases[1:]:
                for s in range(S):
                    v = rr[b + s]
                    if v > out[s]:
                        out[s] = v
            return out

        def full_ready():
            return max(max(rr[b:b + S]) for b in bases)

    # --- destination writeback ---
    if len(wdsts) == 1:
        d0 = wdsts[0]

        def write_scalar(t):
            for s in range(S):
                rr[d0 + s] = t

        def write_list(times):
            rr[d0:d0 + S] = times
    else:
        def write_scalar(t):
            for d in wdsts:
                for s in range(S):
                    rr[d + s] = t

        def write_list(times):
            for d in wdsts:
                rr[d:d + S] = times

    # ------------------------------------------------------------- NOP
    if klass is OpClass.NOP or inst.is_nop:
        def handler(record, earliest, dispatch, out):
            complete = earliest + 1
            if has_dsts:
                write_scalar(complete)
            return complete, complete, None

    # ------------------------------------------------- sliceable ALU ops
    elif klass in _ALU_CLASSES:
        if sliced:
            sched = _sched_for(sim, klass)

            def handler(record, earliest, dispatch, out):
                per = sched(earliest, src_ready())
                complete = max(per)
                if has_dsts:
                    if narrow:
                        per = relax(per, record.result)
                    write_list(per)
                return complete, per, None
        else:
            def handler(record, earliest, dispatch, out):
                ready = full_ready()
                if earliest > ready:
                    ready = earliest
                complete = reserve0(ready) + ex_stages
                if has_dsts:
                    write_scalar(complete)
                return complete, complete, None

    # ------------------------------------------------ compare (non-branch)
    elif klass is OpClass.COMPARE and not is_branch:
        if sliced:
            sched = _sched_for(sim, OpClass.ARITH)

            def handler(record, earliest, dispatch, out):
                per = sched(earliest, src_ready())
                complete = per[-1]
                if has_dsts:
                    write_scalar(complete)
                return complete, complete, None
        else:
            def handler(record, earliest, dispatch, out):
                ready = full_ready()
                if earliest > ready:
                    ready = earliest
                complete = reserve0(ready) + ex_stages
                if has_dsts:
                    write_scalar(complete)
                return complete, complete, None

    # ------------------------------------------------------ FULL units
    elif klass is OpClass.FULL:
        latency = ex_stages
        if m in ("mult", "multu"):
            latency = max(cfg.int_mult_lat, ex_stages)
        elif m in ("div", "divu"):
            latency = max(cfg.int_div_lat, ex_stages)
        elif m == "mul.s":
            latency = max(cfg.fp_mult_lat, ex_stages)
        elif m == "div.s":
            latency = max(cfg.fp_div_lat, ex_stages)
        elif m == "sqrt.s":
            latency = max(cfg.fp_sqrt_lat, ex_stages)
        elif m.endswith(".s") or m.endswith(".w"):
            latency = max(cfg.fp_alu_lat, ex_stages)
        if m in ("mult", "multu", "div", "divu"):
            unit_reserve = sim.multdiv.reserve
        elif m in ("mul.s", "div.s", "sqrt.s"):
            unit_reserve = sim.fp_muldiv.reserve
        else:
            unit_reserve = None
        if unit_reserve is not None:
            def handler(record, earliest, dispatch, out, _lat=latency, _res=unit_reserve):
                ready = full_ready()
                if earliest > ready:
                    ready = earliest
                complete = _res(ready, _lat) + _lat
                if has_dsts:
                    write_scalar(complete)
                return complete, complete, None
        else:
            def handler(record, earliest, dispatch, out, _lat=latency):
                ready = full_ready()
                if earliest > ready:
                    ready = earliest
                complete = reserve0(ready) + _lat
                if has_dsts:
                    write_scalar(complete)
                return complete, complete, None

    # ----------------------------------------------------------- loads
    elif klass is OpClass.LOAD:
        agen_fn = _bind_agen(sim, srcs, src_ready, full_ready)

        def handler(record, earliest, dispatch, out):
            data_ready = load_tail(record, agen_fn(earliest), dispatch, out)
            sim.stats.loads += 1
            if has_dsts:
                write_scalar(data_ready)
            return data_ready, data_ready, None

    # ---------------------------------------------------------- stores
    elif klass is OpClass.STORE:
        agen_fn = _bind_agen(sim, srcs[:1], None, None)
        rt_base = inst.rt * S  # raw rt, replicating the reference quirk

        def handler(record, earliest, dispatch, out):
            agen = agen_fn(earliest)
            data_ready = max(rr[rt_base:rt_base + S])
            complete = agen[-1]
            if data_ready > complete:
                complete = data_ready
            sim.stats.stores += 1
            sim._store_agen = agen
            sim._store_data = data_ready
            return complete, complete, None

    # -------------------------------------------------------- branches
    elif is_branch:
        handler = _bind_branch(sim, inst, src_ready, full_ready, write_scalar, has_dsts)

    # ----------------------------------------------------------- jumps
    elif klass is OpClass.JUMP:
        if m in ("j", "jal"):
            def handler(record, earliest, dispatch, out):
                complete = earliest + 1
                if has_dsts:
                    write_scalar(complete)
                return complete, complete, complete
        else:  # jr / jalr need the full register value
            def handler(record, earliest, dispatch, out):
                ready = full_ready()
                complete = (earliest if earliest > ready else ready) + 1
                if has_dsts:
                    write_scalar(complete)
                return complete, complete, complete

    # ----------------------------------------------- syscall / serialize
    else:
        def handler(record, earliest, dispatch, out):
            ready = full_ready()
            complete = (earliest if earliest > ready else ready) + 1
            if has_dsts:
                write_scalar(complete)
            return complete, complete, None

    return handler, is_mem, is_control, is_branch, is_store


def _bind_agen(sim, base_regs, src_ready, full_ready):
    """Address-generation closure over the flat scoreboard
    (replicating :meth:`TimingSimulator._agen`)."""
    S = sim.num_slices
    rr = sim._rr
    reserve0 = sim.issue_pools[0].reserve
    ex_stages = sim.config.ex_stages
    if src_ready is None:
        # Store path: agen over the base register only.
        if base_regs:
            b0 = base_regs[0] * S

            def src_ready():
                return rr[b0:b0 + S]

            def full_ready():
                return max(rr[b0:b0 + S])
        else:  # pragma: no cover - every load/store has a base register
            def src_ready():
                return [0] * S

            def full_ready():
                return 0
    if sim.sliced:
        sched = _sched_for(sim, OpClass.ARITH)

        def agen_fn(earliest):
            return tuple(sched(earliest, src_ready()))
    elif S > 1:
        def agen_fn(earliest):
            ready = full_ready()
            if earliest > ready:
                ready = earliest
            return (reserve0(ready) + ex_stages,) * S
    else:
        def agen_fn(earliest):
            ready = full_ready()
            if earliest > ready:
                ready = earliest
            return (reserve0(ready) + ex_stages,)
    return agen_fn


def _load_tail_for(sim, front):
    """Load disambiguation and memory access over the front-end columns.

    Replicates :meth:`TimingSimulator._lsd_release` and
    :meth:`TimingSimulator._load_access`, reading the cache level and
    the partial-tag resolving width from the load's *out* code instead
    of touching the hierarchy.  A hazard load (*out* is ``HAZARD``)
    makes its access through *front* only if it does not forward,
    exactly when the reference does.

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
    front_load = front.load
    h = sim.hierarchy
    latency = (
        0,
        h.l1_latency,
        h.l1_latency + h.l2_latency,
        h.l1_latency + h.l2_latency + h.memory_latency,
    )
    l1_latency = cfg.l1_latency
    replay = cfg.replay_penalty
    index_slice = sim.index_ready_slice
    l1d_config = h.l1d.config
    tag_bits = (index_slice + 1) * slice_bits - l1d_config.tag_shift
    ptm_width = max(1, min(max(1, tag_bits), l1d_config.tag_bits))

    def load_tail(record, agen, dispatch, out):
        while window and window[0].commit <= dispatch:
            window.popleft()
        stats = sim.stats
        addr = record.mem_addr
        a_full = agen[-1]
        release = 0
        if window:
            stats.lsd_searches += 1
            word = addr & ~3
            forward = fwd.get(word)
            if forward is not None and forward.seq >= window[0].seq:
                stats.store_forwards += 1
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
                    return max(t_unique, forward.data_ready) + 1
                return max(a_full, forward.agen_times[-1], forward.data_ready) + 1
            if not early_lsd:
                release = max(s.agen_times[-1] for s in window)
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
                    if obs_on:
                        events.emit(
                            EARLY_RELEASE, release, sim.seq, record.pc,
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
                    sim._claim_lsd += replay
                    if obs_on:
                        events.emit(
                            REPLAY, release, sim.seq, record.pc, {"reason": "spec_forward"}
                        )
        if out < 0:  # HAZARD: the access waited on the forwarding decision
            out = front_load(addr)
        level = out & 3
        if ptm:
            index_ready = agen[index_slice]
            if sum_addressed:
                index_ready -= 1
            if release > index_ready:
                sim._claim_lsd += release - index_ready
            access_start = index_ready if index_ready > release else release
            settled = out >> 2 <= ptm_width
            stats.ptm_accesses += 1
            if level == L1:
                stats.l1d_hits += 1
                if settled:
                    stats.ptm_early_hits += 1
                    return access_start + l1_latency
                stats.ptm_way_mispredicts += 1
                sim._claim_ptm += l1_latency + replay
                if obs_on:
                    events.emit(
                        WAY_MISPREDICT, access_start + l1_latency, sim.seq, record.pc,
                        {"addr": addr},
                    )
                return max(a_full, access_start + l1_latency) + l1_latency + replay
            lat = latency[level]
            stats.l1d_misses += 1
            stats.load_replays += 1
            sim._claim_mem += (lat - l1_latency) + replay
            if obs_on:
                events.emit(
                    REPLAY, access_start + lat, sim.seq, record.pc, {"reason": "l1d_miss"}
                )
            if settled:  # zero match: the miss is known early
                stats.ptm_early_misses += 1
                return access_start + lat + replay
            return max(a_full, access_start) + lat + replay

        index_time = a_full - 1 if sum_addressed else a_full
        if release > index_time:
            sim._claim_lsd += release - index_time
        access_start = index_time if index_time > release else release
        lat = latency[level]
        if level == L1:
            stats.l1d_hits += 1
            return access_start + lat
        stats.l1d_misses += 1
        stats.load_replays += 1
        sim._claim_mem += (lat - l1_latency) + replay
        if obs_on:
            events.emit(
                REPLAY, access_start + lat, sim.seq, record.pc, {"reason": "l1d_miss"}
            )
        return access_start + lat + replay

    return load_tail


def _bind_branch(sim, inst, src_ready, full_ready, write_scalar, has_dsts):
    """Conditional-branch closure (replicating :meth:`TimingSimulator._branch`)."""
    m = inst.mnemonic
    reserve0 = sim.issue_pools[0].reserve
    ex_stages = sim.config.ex_stages
    if m in ("beq", "bne") and sim.sliced:
        early_branch = sim.early_branch
        ooo = sim.ooo_slices
        S = sim.num_slices
        sched = _sched_for(sim, OpClass.ZERO_TEST)

        def handler(record, earliest, dispatch, out):
            per = sched(earliest, src_ready())
            complete = max(per)
            resolve = complete
            if early_branch:
                # The front end's gshare prediction, as the reference
                # reads it before training.
                predicted_taken = bool(out & 1)
                if predicted_taken != record.taken and can_resolve_early(m, predicted_taken):
                    diff_slices = slices_containing_difference(
                        record.rs_val, record.rt_val, S
                    )
                    if diff_slices:
                        if ooo:
                            resolve = min(per[k] for k in diff_slices)
                        else:
                            resolve = per[diff_slices[0]]
                        if resolve < complete:
                            stats = sim.stats
                            stats.early_resolved_mispredicts += 1
                            extra = stats.extra
                            extra["early_branch_saved_cycles"] = (
                                extra.get("early_branch_saved_cycles", 0)
                                + (complete - resolve)
                            )
            if has_dsts:  # pragma: no cover - conditional branches have no dsts
                write_scalar(complete)
            return complete, complete, resolve
    elif sim.sliced:
        sched = _sched_for(sim, OpClass.ARITH)

        def handler(record, earliest, dispatch, out):
            per = sched(earliest, src_ready())
            complete = per[-1]
            if has_dsts:  # pragma: no cover - conditional branches have no dsts
                write_scalar(complete)
            return complete, complete, complete
    else:
        def handler(record, earliest, dispatch, out):
            ready = full_ready()
            if earliest > ready:
                ready = earliest
            complete = reserve0(ready) + ex_stages
            if has_dsts:  # pragma: no cover - conditional branches have no dsts
                write_scalar(complete)
            return complete, complete, complete
    return handler


# ------------------------------------------------------------- main loop

def _take(trace, limit):
    """The records a run simulates: all of *trace*, or its first *limit*."""
    if limit is None:
        return trace if isinstance(trace, (list, tuple)) else list(trace)
    limit = max(0, limit)
    if isinstance(trace, (list, tuple)):
        return trace[:limit] if len(trace) > limit else trace
    return list(islice(trace, limit))


def run_fast(sim, trace, max_instructions=None, warmup=0, watchdog=None):
    """Fast-mode main loop for :class:`TimingSimulator`.

    Runs the two passes: the front-end pass walks the records over the
    simulator's predictor and hierarchy (or the simulator replays the
    columns another run handed it), then the timing pass replays them
    through the pre-bound plans with fetch inlined.  Statement order
    and arithmetic mirror :meth:`TimingSimulator.run_reference`; the
    lockstep cross-check enforces bit-identity.
    """
    from repro.timing.simulator import CPI_SAMPLE_INTERVAL, _StoreEntry

    cfg = sim.config
    stats = sim.stats
    ev = sim.events
    gp = _guest_collector()
    prof: dict | None = {} if gp is not None else None
    obs_on = sim._obs_enabled
    emit_text = sim._emit_text
    if watchdog is not None:
        watchdog.start()
    records = _take(trace, None if max_instructions is None else max_instructions + warmup)
    n = len(records)

    columns = sim._replay
    if columns is None:
        front = FrontEnd(sim.predictor, sim.hierarchy, sim.current_fetch_line)
        columns = FrontEndColumns(front, cfg.lsq_size, sim.store_window)
        walked = columns.walk(records, 0)
    else:
        sim._replay = None
        if len(columns.static) != n:
            raise ValueError(f"front-end columns cover {len(columns.static)} records, the run {n}")
        walked = n
    sim.front_end = columns
    statics = columns.statics
    load_tail = _load_tail_for(sim, columns.front)
    plans = [bind_plan(sim, inst, load_tail) for inst in statics]

    commit_ring = sim.commit_ring
    mem_ring = sim.mem_commit_ring
    window = sim.store_window
    fwd = sim._fwd
    dispatch_stage = cfg.dispatch_stage
    frontend_depth = cfg.frontend_depth
    retire_stages = cfg.retire_stages
    ruu_size = cfg.ruu_size
    lsq_size = cfg.lsq_size
    fetch_width = cfg.fetch_width
    commit_width = cfg.commit_width
    h = sim.hierarchy
    # Stall a fetch-line transition served below the L1 adds, by level.
    fetch_penalty = (0, 0, h.l2_latency, h.l2_latency + h.memory_latency)

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
        for record, s, fl, out in zip(
            islice(records, start, walked),
            islice(columns.static, start, walked),
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
            sim.seq = seq
            sim._claim_lsd = sim._claim_ptm = sim._claim_mem = sim._claim_slice = 0
            handler, is_mem, is_control, is_branch, is_store = plans[s]

            # ---------------- fetch (TimingSimulator._fetch) ----------------
            cb = cr = cq = cm = 0
            earliest = redirect_at
            if earliest > fetch_cycle:
                cb = earliest - fetch_cycle
            if len(commit_ring) >= ruu_size:
                free_at = commit_ring[0] - dispatch_stage
                if free_at > earliest:
                    stall = free_at - (earliest if earliest > fetch_cycle else fetch_cycle)
                    if stall > 0:
                        stats.ruu_stall_cycles += stall
                        cr = stall
                    earliest = free_at
            if is_mem and len(mem_ring) >= lsq_size:
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

            complete, result_times, resolve = handler(record, F + frontend_depth, dispatch, out)

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
                cd = sim._claim_lsd
                cp = sim._claim_ptm
                cm += sim._claim_mem
                cs = sim._claim_slice
                if cb | cr | cq | cd | cp | cm | cs:
                    attribute_delta(stats, delta, (cb, cr, cq, cd, cp, cm, cs))
                else:
                    stats.cpi_base += delta
                if prof is not None:
                    profile_delta(
                        prof, record.pc, delta, (cb, cr, cq, cd, cp, cm, cs)
                    )
            last = commit
            if first_commit is None:
                first_commit = commit
            commit_ring.append(commit)
            if is_mem:
                mem_ring.append(commit)
                if is_store:
                    addr = record.mem_addr
                    entry = _StoreEntry(
                        seq, addr, sim._store_agen, sim._store_data, commit, dispatch
                    )
                    window.append(entry)
                    fwd[addr & ~3] = entry

            if obs_on:
                pc = record.pc
                inst = record.inst
                fetch_args: dict = {"mnemonic": inst.mnemonic}
                if emit_text:
                    from repro.isa.disassembler import format_instruction

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
            walked = columns.walk(records, start)
            plans.extend(bind_plan(sim, inst, load_tail) for inst in statics[len(plans):])

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

    records = trace if isinstance(trace, list) else list(trace)
    ref = TimingSimulator(config, events=EventTrace(capacity=None), mode="reference")
    fast = TimingSimulator(config, events=EventTrace(capacity=None), mode="fast")
    ref_stats = ref.run(records, max_instructions, warmup=warmup)
    fast_stats = fast.run(records, max_instructions, warmup=warmup)
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
