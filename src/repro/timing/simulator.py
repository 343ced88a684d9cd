"""One-pass timestamp timing model of the paper's machine.

The simulator consumes the architectural (correct-path) dynamic
instruction stream and assigns every instruction its fetch, execute and
commit cycles under the configured pipeline:

* **Figure 10(a)** — atomic single-cycle EX (``baseline_config``);
* **Figure 10 simple pipelining** — EX pipelined into 2 or 4 stages,
  operands atomic: dependants observe the full EX latency;
* **Figure 10(b)/(c)** — bit-sliced EX: dependences resolve on slice
  boundaries per Figure 8, with the partial-operand techniques
  (bypassing, out-of-order slices, early branch resolution, early
  load–store disambiguation, partial tag matching) as feature flags.

Wrong-path instructions are not executed; a misprediction instead
blocks fetch until the branch resolves (redirect latency), which the
paper identifies as the first-order cost.  Front-end depth, RUU/LSQ
occupancy, fetch/issue/commit bandwidth, functional-unit structural
hazards, the Table 2 memory hierarchy and the gshare/BTB/RAS front end
are all modeled.
"""

from __future__ import annotations

import time
from collections import deque
from collections.abc import Iterable, Sequence
from itertools import islice

from repro.branch.early import can_resolve_early
from repro.branch.predictor import FrontEndPredictor
from repro.context import current as _run_context
from repro.core.config import MachineConfig
from repro.core.slicing import slices_containing_difference, split_value
from repro.emulator.trace import TraceRecord, as_trace
from repro.isa.opclass import OpClass, op_class
from repro.isa.registers import HI, LO, NUM_EXT_REGS
from repro.memsys.hierarchy import MemoryHierarchy
from repro.memsys.partial_tag import partial_tag_lookup
from repro.obs.attribution import attribute_delta
from repro.obs.guestprof import SHORTFALL_PC, profile_delta
from repro.obs.tracing import traced
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
from repro.timing.frontend import front_end_key
from repro.timing.resources import BandwidthPool, ExclusiveUnit
from repro.timing.stats import SimStats

_NEG_INF = -1

#: Commit-count stride between ``cpi_sample`` events (Perfetto counter
#: track granularity vs. event-stream volume).
CPI_SAMPLE_INTERVAL = 64


class _StoreEntry:
    """A store still potentially in the LSQ, as seen by younger loads."""

    __slots__ = ("seq", "addr", "agen_times", "data_ready", "commit", "dispatch")

    def __init__(self, seq: int, addr: int, agen_times: tuple[int, ...], data_ready: int, commit: int, dispatch: int):
        self.seq = seq
        self.addr = addr
        self.agen_times = agen_times
        self.data_ready = data_ready
        self.commit = commit
        self.dispatch = dispatch


class TimingSimulator:
    """Timestamp simulator for one :class:`MachineConfig`.

    *predictor* and *hierarchy* default to fresh Table 2 structures
    built from the config.  Statistical sampling
    (:mod:`repro.timing.sampling`) passes its functionally warmed ones,
    which a run trains further exactly as the reference loop would;
    they must have the config's geometry.  The fast path reads every
    latency from the config, while the reference loop reads the cache
    latencies from *hierarchy*, so a config whose latencies differ from
    the hierarchy's may run on it in fast mode only (sampled riders
    never run in reference mode).
    """

    def __init__(
        self,
        config: MachineConfig,
        record_timeline: bool = False,
        events: EventTrace | None = None,
        mode: str | None = None,
        predictor: FrontEndPredictor | None = None,
        hierarchy: MemoryHierarchy | None = None,
    ) -> None:
        self.config = config
        self.stats = SimStats(config_name=config.name)
        #: Typed cycle-event stream (:mod:`repro.obs.events`).  The
        #: pipeline timeline, the JSONL export and the Perfetto trace
        #: are all views over this one stream.  *record_timeline*
        #: captures every instruction (unbounded, with disassembled
        #: labels); an explicit *events* ring buffer bounds memory for
        #: long sweeps, and its ``first_seq`` skips the instructions
        #: before a window.
        self._record_timeline = record_timeline
        if events is None and record_timeline:
            events = EventTrace(capacity=None)
        self.events = events
        #: Single cheap flag guarding every event-emission site in the
        #: hot loops: disabled observability costs one local branch.
        self._obs_enabled = events is not None
        self._emit_text = record_timeline
        self._timeline_cache: tuple[int, list] | None = None
        if predictor is None:
            predictor = FrontEndPredictor(
                config.gshare_entries, config.btb_entries, config.btb_assoc, config.ras_depth
            )
        if hierarchy is None:
            hierarchy = MemoryHierarchy(
                l1_latency=config.l1_latency,
                l2_latency=config.l2_latency,
                memory_latency=config.memory_latency,
            )
        self.predictor = predictor
        self.hierarchy = hierarchy
        S = config.num_slices
        self.num_slices = S
        self.slice_bits = 32 // S
        # Architectural register slice-ready times (GPRs + HI/LO +
        # FPRs + the FP condition flag).
        self.reg_ready: list[list[int]] = [[0] * S for _ in range(NUM_EXT_REGS)]
        # Issue/FU bandwidth: one pool per slice pipe (atomic: one pool).
        self.issue_pools = [BandwidthPool(config.issue_width) for _ in range(S)]
        self.commit_pool = BandwidthPool(config.commit_width)
        self.multdiv = ExclusiveUnit()
        self.fp_muldiv = ExclusiveUnit()  # Table 2: 1 FP mult/div/sqrt unit
        # Fetch state.
        self.fetch_cycle = 0
        self.fetched_this_cycle = 0
        self.redirect_at = 0
        self.current_fetch_line = -1
        self.line_ready_at = 0
        # In-order commit state and occupancy rings, bounded so that an
        # append past the bound drops the oldest entry (the reference
        # loop's explicit popleft then never fires).
        self.last_commit = 0
        self.commit_ring: deque[int] = deque(maxlen=config.ruu_size)      # RUU occupancy
        self.mem_commit_ring: deque[int] = deque(maxlen=config.lsq_size)  # LSQ occupancy
        self.store_window: deque[_StoreEntry] = deque(maxlen=config.lsq_size)
        self.seq = 0
        # Derived config flags, hoisted for the hot loop.
        f = config.features
        self.sliced = S > 1 and f.partial_operand_bypassing
        self.ooo_slices = self.sliced and f.out_of_order_slices
        self.early_branch = self.sliced and f.early_branch_resolution
        self.early_lsd = self.sliced and f.early_lsq_disambiguation
        self.ptm = self.sliced and f.partial_tag_matching
        self.narrow = self.sliced and f.narrow_width_relaxation
        self.spec_forward = self.sliced and f.speculative_forwarding
        # Sum-addressed indexing applies to any machine shape (§5.2
        # calls it orthogonal); it removes the adder from the cache
        # index path.
        self.sum_addressed = f.sum_addressed_cache
        self.line_shift = self.hierarchy.l1i.config.offset_bits
        # First agen slice index at which the L1D index is fully known.
        tag_shift = self.hierarchy.l1d.config.tag_shift
        self.index_ready_slice = (tag_shift + self.slice_bits - 1) // self.slice_bits - 1
        self.first_commit = None
        # CPI attribution: per-instruction stall claims, recorded while
        # the instruction schedules and settled against its
        # commit-to-commit delta by the waterfall (repro.obs.attribution).
        self._claim_branch = 0
        self._claim_ruu = 0
        self._claim_lsq = 0
        self._claim_lsd = 0
        self._claim_ptm = 0
        self._claim_mem = 0
        self._claim_slice = 0
        # Timing-mode dispatch (mirrors the emulator's REPRO_DISPATCH
        # pattern): "fast" runs a front-end pass and replays it through
        # one generated handler per static instruction
        # (repro.timing.fastpath), "reference" runs the original loop
        # below — the golden model the fast path is lockstep-checked
        # against.
        from repro.timing.fastpath import TIMING_MODES, default_timing_mode

        if mode is None:
            mode = default_timing_mode()
        elif mode not in TIMING_MODES:
            raise ValueError(f"mode={mode!r}: expected 'fast' or 'reference'")
        self.mode = mode
        # Fast-path state: flat reg-ready scoreboard (``reg * S + slice``
        # — no per-call list allocations), the word -> youngest-store
        # forwarding map for the incremental LSQ window, and the commits
        # already made at cycle ``last_commit`` (commit bandwidth).
        self._rr: list[int] = [0] * (NUM_EXT_REGS * S)
        self._fwd: dict[int, _StoreEntry] = {}
        self._commits_at_last = 0
        #: Front-end columns (:mod:`repro.timing.frontend`) of the last
        #: fast run.  ``_replay`` holds columns for the next run to replay
        #: instead of walking this simulator's own predictor and caches:
        #: a pass over the same records, from the same state and with the
        #: same ``front_end_key`` (:func:`simulate_configs`,
        #: :func:`repro.timing.sampling.sample_configs`).
        self.front_end = None
        self._replay = None

    @property
    def timeline(self):
        """Per-instruction pipeline timestamps, reconstructed from the
        cycle-event stream (``None`` unless *record_timeline* was set)."""
        if not self._record_timeline:
            return None
        from repro.timing.pipeview import events_to_timeline

        if self._timeline_cache is None or self._timeline_cache[0] != self.events.emitted:
            self._timeline_cache = (self.events.emitted, events_to_timeline(self.events))
        return self._timeline_cache[1]

    # ------------------------------------------------------------------ fetch

    def _fetch(self, record: TraceRecord, is_mem: bool) -> int:
        cfg = self.config
        earliest = self.redirect_at
        if earliest > self.fetch_cycle:
            # Fetch is still blocked on a mispredicted control's
            # resolution (possibly an early §5.3 one): recovery claim.
            self._claim_branch = earliest - self.fetch_cycle
        # RUU occupancy: dispatch slot frees when the (i - ruu)th commits.
        if len(self.commit_ring) >= cfg.ruu_size:
            free_at = self.commit_ring[0] - cfg.dispatch_stage
            if free_at > earliest:
                stall = free_at - max(earliest, self.fetch_cycle)
                if stall > 0:
                    self.stats.ruu_stall_cycles += stall
                    self._claim_ruu = stall
                earliest = free_at
        if is_mem and len(self.mem_commit_ring) >= cfg.lsq_size:
            free_at = self.mem_commit_ring[0] - cfg.dispatch_stage
            if free_at > earliest:
                stall = free_at - max(earliest, self.fetch_cycle)
                if stall > 0:
                    self.stats.lsq_stall_cycles += stall
                    self._claim_lsq = stall
                earliest = free_at
        if earliest > self.fetch_cycle:
            self.fetch_cycle = earliest
            self.fetched_this_cycle = 0
        elif self.fetched_this_cycle >= cfg.fetch_width:
            self.fetch_cycle += 1
            self.fetched_this_cycle = 0
        # Instruction cache: one access per line transition.
        line = record.pc >> self.line_shift
        if line != self.current_fetch_line:
            self.current_fetch_line = line
            result = self.hierarchy.access_instruction(record.pc)
            self.line_ready_at = self.fetch_cycle + (result.latency - self.hierarchy.l1_latency)
        if self.line_ready_at > self.fetch_cycle:
            self._claim_mem += self.line_ready_at - self.fetch_cycle
            self.fetch_cycle = self.line_ready_at
            self.fetched_this_cycle = 0
        self.fetched_this_cycle += 1
        return self.fetch_cycle

    # -------------------------------------------------------------- operands

    def _src_ready(self, regs: tuple[int, ...]) -> list[int]:
        """Per-slice max ready time across the source registers."""
        S = self.num_slices
        out = [0] * S
        for r in regs:
            ready = self.reg_ready[r]
            for s in range(S):
                if ready[s] > out[s]:
                    out[s] = ready[s]
        return out

    def _full_ready(self, regs: tuple[int, ...]) -> int:
        t = 0
        for r in regs:
            m = max(self.reg_ready[r])
            if m > t:
                t = m
        return t

    def _write_dst(self, regs: tuple[int, ...], times) -> None:
        """Record result slice-ready times (scalar = all slices)."""
        if isinstance(times, int):
            times = [times] * self.num_slices
        for r in regs:
            if r == 0:
                continue
            self.reg_ready[r] = list(times)

    # ------------------------------------------------------------ scheduling

    def _schedule_atomic(self, earliest: int, operand_ready: int, latency: int) -> tuple[int, int]:
        """Issue an atomic-operand op; returns (start, complete)."""
        start = self.issue_pools[0].reserve(max(earliest, operand_ready))
        return start, start + latency

    def _schedule_sliced(
        self, earliest: int, src_slice_ready: list[int], klass: OpClass
    ) -> list[int]:
        """Issue each slice of a sliceable op; returns per-slice completion.

        Implements Figure 8: per-slice operand needs, the carry/shift
        chains, and (when the feature is off) in-order slice issue.
        """
        S = self.num_slices
        complete = [0] * S
        order = range(S - 1, -1, -1) if klass is OpClass.SHIFT_RIGHT else range(S)
        prev_start = _NEG_INF
        first_start = _NEG_INF
        for k in order:
            # Input slices needed by slice k.
            if klass in (OpClass.LOGIC, OpClass.ZERO_TEST, OpClass.ARITH):
                ready = src_slice_ready[k]
            elif klass is OpClass.SHIFT_LEFT:
                ready = max(src_slice_ready[: k + 1])
            elif klass is OpClass.SHIFT_RIGHT:
                ready = max(src_slice_ready[k:])
            else:  # pragma: no cover - callers filter classes
                ready = max(src_slice_ready)
            # Intra-instruction chain (carry / shifted-in bits).
            if klass in (OpClass.ARITH, OpClass.SHIFT_LEFT) and k > 0:
                ready = max(ready, complete[k - 1])
            elif klass is OpClass.SHIFT_RIGHT and k < S - 1:
                ready = max(ready, complete[k + 1])
            # Without out-of-order slices, slices enter their pipes in order.
            if not self.ooo_slices and prev_start != _NEG_INF:
                ready = max(ready, prev_start + 1)
            start = self.issue_pools[k].reserve(max(earliest, ready))
            if first_start == _NEG_INF:
                first_start = start
            prev_start = start
            complete[k] = start + 1
        # Inter-slice wait claim: cycles the full result took beyond a
        # one-cycle EX starting when the first slice could (the Figure 8
        # carry/shift chain plus waits on producers' late high slices).
        self._claim_slice += max(complete) - first_start - 1
        return complete

    # ----------------------------------------------------------------- loads

    def _lsd_release(self, load_agen: tuple[int, ...], load_addr: int, dispatch: int, pc: int = 0):
        """When the load may access memory, and any forwarding store.

        Returns ``(release_cycle, forward_store_or_None, relevant_stores)``.
        """
        word = load_addr & ~3
        relevant = [s for s in self.store_window if s.commit > dispatch]
        if not relevant:
            return 0, None, relevant
        self.stats.lsd_searches += 1
        forward = None
        for store in relevant:  # oldest..youngest; keep youngest match
            if (store.addr & ~3) == word:
                forward = store
        if forward is not None:
            return 0, forward, relevant
        if not self.early_lsd:
            # Conventional: every older store's full address must be known.
            return max(s.agen_times[-1] for s in relevant), None, relevant
        # Early disambiguation: each store is ruled out at the first
        # slice (from the low end, bits >= 2) where the addresses
        # differ and both sides have produced that slice.
        release = 0
        early_helped = False
        full = max(s.agen_times[-1] for s in relevant)
        for store in relevant:
            diff = (store.addr ^ load_addr) & ~3
            k = ((diff & -diff).bit_length() - 1) // self.slice_bits  # first differing slice
            t = max(store.agen_times[k], load_agen[k])
            if t < max(store.agen_times[-1], load_agen[-1]):
                early_helped = True
            if t > release:
                release = t
        if release < full and early_helped:
            self.stats.lsd_early_releases += 1
            if self._obs_enabled and self.seq >= self.events.first_seq:
                self.events.emit(
                    EARLY_RELEASE, release, self.seq, pc, {"full_release": full}
                )
        return release, None, relevant

    def _load_data_ready(self, record: TraceRecord, agen: tuple[int, ...], dispatch: int) -> int:
        """Schedule the memory access of a load; returns data-ready cycle."""
        release, forward, relevant = self._lsd_release(agen, record.mem_addr, dispatch, record.pc)
        return self._load_access(record, agen, release, forward, relevant)

    def _load_access(self, record: TraceRecord, agen: tuple[int, ...], release: int, forward, relevant) -> int:
        """Memory-access tail of a load, shared by both timing modes.

        *relevant* is the visible store window (oldest -> youngest);
        the fast path passes its incrementally-pruned deque, the
        reference path the per-load filtered list — the §5.1/PTM/miss
        modelling below is shared verbatim so the two modes can only
        diverge in the release computation, which the lockstep
        cross-check covers.
        """
        cfg = self.config
        stats = self.stats
        addr = record.mem_addr
        a_full = agen[-1]
        if forward is not None:
            stats.store_forwards += 1
            if self.spec_forward:
                # §5.1 extension: forward as soon as this store is the
                # unique partial matcher (all other stores ruled out on
                # their first differing slice) instead of waiting for
                # the full address compare.
                t_unique = max(agen[0], forward.agen_times[0])
                word = addr & ~3
                for store in relevant:
                    if store is forward or (store.addr & ~3) == word:
                        continue
                    diff = (store.addr ^ addr) & ~3
                    k = ((diff & -diff).bit_length() - 1) // self.slice_bits
                    t_unique = max(t_unique, store.agen_times[k], agen[k])
                stats.extra["spec_forwards"] = stats.extra.get("spec_forwards", 0) + 1
                return max(t_unique, forward.data_ready) + 1
            # Forwarding confirms on the full addresses, then moves data.
            return max(a_full, forward.agen_times[-1], forward.data_ready) + 1
        if self.spec_forward and relevant:
            # Mis-speculation model: a lone store that matched the
            # low-slice window but mismatches the full address would
            # have forwarded wrongly — its consumer replays.
            near_matches = [
                s for s in relevant
                if (((s.addr ^ addr) & ~3) & ((1 << self.slice_bits) - 1)) == 0
            ]
            if len(near_matches) == 1:
                stats.extra["spec_forward_mispredicts"] = (
                    stats.extra.get("spec_forward_mispredicts", 0) + 1
                )
                release = max(release, a_full) + cfg.replay_penalty
                self._claim_lsd += cfg.replay_penalty
                if self._obs_enabled and self.seq >= self.events.first_seq:
                    self.events.emit(
                        REPLAY, release, self.seq, record.pc, {"reason": "spec_forward"}
                    )

        if self.ptm:
            # Access may begin once the index bits exist (first agen
            # slice for 16-bit slices, second for 8-bit slices).
            index_ready = agen[self.index_ready_slice]
            if self.sum_addressed:
                # §5.2: the array decoder computes base+offset itself,
                # removing the adder cycle from the index path.
                index_ready -= 1
            if release > index_ready:
                self._claim_lsd += release - index_ready
            access_start = max(index_ready, release)
            bits_avail = (self.index_ready_slice + 1) * self.slice_bits
            tag_bits = bits_avail - self.hierarchy.l1d.config.tag_shift
            outcome, _, correct = partial_tag_lookup(self.hierarchy.l1d, addr, max(1, tag_bits))
            result = self.hierarchy.access_data(addr)
            stats.ptm_accesses += 1
            if result.l1_hit:
                stats.l1d_hits += 1
                if correct:
                    stats.ptm_early_hits += 1
                    return access_start + cfg.l1_latency
                # Way mispredicted: verified against the full tag, the
                # access repeats and mis-scheduled consumers replay.
                stats.ptm_way_mispredicts += 1
                self._claim_ptm += cfg.l1_latency + cfg.replay_penalty
                if self._obs_enabled and self.seq >= self.events.first_seq:
                    self.events.emit(
                        WAY_MISPREDICT,
                        access_start + cfg.l1_latency,
                        self.seq,
                        record.pc,
                        {"addr": addr},
                    )
                return max(a_full, access_start + cfg.l1_latency) + cfg.l1_latency + cfg.replay_penalty
            stats.l1d_misses += 1
            stats.load_replays += 1
            self._claim_mem += (result.latency - cfg.l1_latency) + cfg.replay_penalty
            if self._obs_enabled and self.seq >= self.events.first_seq:
                self.events.emit(
                    REPLAY, access_start + result.latency, self.seq, record.pc,
                    {"reason": "l1d_miss"},
                )
            if outcome.name == "ZERO":
                # Miss known early and non-speculatively: the L2 access
                # overlaps the rest of address generation.
                stats.ptm_early_misses += 1
                return access_start + result.latency + cfg.replay_penalty
            # Partial match that fails the full-tag check: miss is
            # discovered only at verification time.
            return max(a_full, access_start) + result.latency + cfg.replay_penalty

        index_time = a_full - 1 if self.sum_addressed else a_full
        if release > index_time:
            self._claim_lsd += release - index_time
        access_start = max(index_time, release)
        result = self.hierarchy.access_data(addr)
        if result.l1_hit:
            stats.l1d_hits += 1
            return access_start + result.latency
        stats.l1d_misses += 1
        stats.load_replays += 1
        self._claim_mem += (result.latency - cfg.l1_latency) + cfg.replay_penalty
        if self._obs_enabled and self.seq >= self.events.first_seq:
            self.events.emit(
                REPLAY, access_start + result.latency, self.seq, record.pc,
                {"reason": "l1d_miss"},
            )
        return access_start + result.latency + cfg.replay_penalty

    # ------------------------------------------------------------------ main

    def run(
        self,
        trace: Iterable[TraceRecord],
        max_instructions: int | None = None,
        warmup: int = 0,
        watchdog=None,
    ) -> SimStats:
        """Simulate *trace* (optionally truncated) and return the stats.

        The first *warmup* instructions are simulated normally (caches,
        predictors and pipeline state all advance) but excluded from the
        reported counters and the IPC window — the feasible-scale
        equivalent of the paper's 1B-instruction fast-forward.

        An optional :class:`~repro.harness.watchdog.Watchdog` bounds the
        simulation with hard step/wall-clock budgets, raising
        :class:`~repro.harness.errors.RunawayExecution` on breach.

        Dispatches on :attr:`mode`: the fast path
        (:func:`repro.timing.fastpath.run_fast`) walks the predictor and
        caches in a front-end pass, then replays its columns through one
        generated handler per static instruction; the reference path
        is :meth:`run_reference` — the golden model the fast path is
        lockstep-checked against.  Both consume exactly
        ``max_instructions + warmup`` records from an iterator.
        """
        if self.mode == "fast":
            from repro.timing.fastpath import run_fast

            return run_fast(self, trace, max_instructions, warmup, watchdog)
        return self.run_reference(trace, max_instructions, warmup, watchdog)

    def run_reference(
        self,
        trace: Iterable[TraceRecord],
        max_instructions: int | None = None,
        warmup: int = 0,
        watchdog=None,
    ) -> SimStats:
        """Reference main loop (golden model for the fast path)."""
        cfg = self.config
        stats = self.stats
        S = self.num_slices
        ev = self.events  # hoisted: None when observability is off
        first_seq = ev.first_seq if ev is not None else 0
        emit_text = self._emit_text
        if emit_text:
            from repro.isa.disassembler import format_instruction
        gp = _run_context().collector
        # Per-PC CPI attribution (guest profiler): pc → component cycles,
        # filled from the same commit deltas the SimStats stack sees.
        prof: dict | None = {} if gp is not None else None
        count = 0
        warm_commit = 0
        if watchdog is not None:
            watchdog.start()
        if max_instructions is not None:
            trace = islice(trace, max(0, max_instructions + warmup))
        for record in trace:
            count += 1
            if watchdog is not None:
                watchdog.poll(count)
            if count == warmup:
                warm_commit = self.last_commit
                fresh = SimStats(config_name=cfg.name)
                self.stats = stats = fresh
                if prof is not None:
                    prof.clear()
            self.seq += 1
            # CPI attribution: fresh stall claims for this instruction.
            self._claim_branch = self._claim_ruu = self._claim_lsq = 0
            self._claim_lsd = self._claim_ptm = self._claim_mem = self._claim_slice = 0
            inst = record.inst
            m = inst.mnemonic
            klass = op_class(m)
            is_mem = klass is OpClass.LOAD or klass is OpClass.STORE

            F = self._fetch(record, is_mem)
            dispatch = F + cfg.dispatch_stage
            earliest_exec = F + cfg.frontend_depth
            srcs = inst.src_regs()
            dsts = inst.dst_regs()

            # ---------------- execute ----------------
            resolve = None  # control-resolution cycle
            if klass is OpClass.NOP or inst.is_nop:
                complete = earliest_exec + 1
                result_times: list[int] | int = complete
            elif klass in (OpClass.LOGIC, OpClass.ARITH, OpClass.SHIFT_LEFT, OpClass.SHIFT_RIGHT):
                if self.sliced:
                    src_ready = self._src_ready(srcs)
                    per_slice = self._schedule_sliced(earliest_exec, src_ready, klass)
                    complete = max(per_slice)
                    result_times = per_slice
                else:
                    start, complete = self._schedule_atomic(
                        earliest_exec, self._full_ready(srcs), cfg.ex_stages
                    )
                    result_times = complete
            elif klass is OpClass.COMPARE and not inst.is_branch:
                # slt family: a subtraction whose defining bit is the
                # sign — sliceable with a borrow chain, but the result
                # (bit 0) exists only once the top slice has computed.
                if self.sliced:
                    per_slice = self._schedule_sliced(
                        earliest_exec, self._src_ready(srcs), OpClass.ARITH
                    )
                    complete = per_slice[-1]
                else:
                    _, complete = self._schedule_atomic(
                        earliest_exec, self._full_ready(srcs), cfg.ex_stages
                    )
                result_times = complete
            elif klass is OpClass.FULL:
                latency = cfg.ex_stages
                if m in ("mult", "multu"):
                    latency = max(cfg.int_mult_lat, cfg.ex_stages)
                elif m in ("div", "divu"):
                    latency = max(cfg.int_div_lat, cfg.ex_stages)
                elif m == "mul.s":
                    latency = max(cfg.fp_mult_lat, cfg.ex_stages)
                elif m == "div.s":
                    latency = max(cfg.fp_div_lat, cfg.ex_stages)
                elif m == "sqrt.s":
                    latency = max(cfg.fp_sqrt_lat, cfg.ex_stages)
                elif m.endswith(".s") or m.endswith(".w"):
                    latency = max(cfg.fp_alu_lat, cfg.ex_stages)
                ready = max(self._full_ready(srcs), earliest_exec)
                if m in ("mult", "multu", "div", "divu"):
                    start = self.multdiv.reserve(ready, latency)
                elif m in ("mul.s", "div.s", "sqrt.s"):
                    start = self.fp_muldiv.reserve(ready, latency)
                else:
                    start = self.issue_pools[0].reserve(ready)
                complete = start + latency
                result_times = complete
            elif klass is OpClass.LOAD:
                agen = self._agen(earliest_exec, srcs)
                data_ready = self._load_data_ready(record, agen, dispatch)
                complete = data_ready
                result_times = data_ready
                stats.loads += 1
            elif klass is OpClass.STORE:
                agen = self._agen(earliest_exec, srcs[:1])
                data_ready = max(self.reg_ready[inst.rt])
                complete = max(agen[-1], data_ready)
                result_times = complete
                stats.stores += 1
            elif inst.is_branch:
                resolve, complete = self._branch(record, earliest_exec, srcs)
                result_times = complete
            elif klass is OpClass.JUMP:
                if m in ("j", "jal"):
                    complete = earliest_exec + 1
                else:  # jr / jalr need the full register value
                    complete = max(earliest_exec, self._full_ready(srcs)) + 1
                resolve = complete
                result_times = complete
            else:  # SYSCALL / break: serialize lightly
                complete = max(earliest_exec, self._full_ready(srcs)) + 1
                result_times = complete

            if dsts:
                if self.narrow and not isinstance(result_times, int):
                    result_times = self._relax_narrow(result_times, record.result)
                self._write_dst(dsts, result_times)

            # ---------------- control redirect ----------------
            mispredicted = False
            if inst.is_control:
                outcome = self.predictor.predict_and_train(record)
                mispredicted = outcome.mispredicted
                if inst.is_branch:
                    stats.branches += 1
                    if outcome.mispredicted:
                        stats.branch_mispredicts += 1
                if outcome.mispredicted:
                    assert resolve is not None
                    self.redirect_at = resolve + 1
                elif outcome.predicted_taken:
                    # Taken control breaks the fetch group.
                    self.fetch_cycle += 1
                    self.fetched_this_cycle = 0

            # ---------------- commit ----------------
            commit = max(complete + cfg.retire_stages, self.last_commit)
            commit = self.commit_pool.reserve(commit)
            if commit < self.last_commit:  # pragma: no cover - pool is monotonic here
                commit = self.last_commit
            # CPI attribution: the commit-to-commit delta is this
            # instruction's share of total cycles; settle it against the
            # claims recorded while it scheduled (waterfall order), the
            # unclaimed remainder being base progress.
            delta = commit - self.last_commit
            if delta:
                if (
                    self._claim_branch | self._claim_ruu | self._claim_lsq
                    | self._claim_lsd | self._claim_ptm | self._claim_mem
                    | self._claim_slice
                ):
                    attribute_delta(
                        stats,
                        delta,
                        (
                            self._claim_branch, self._claim_ruu, self._claim_lsq,
                            self._claim_lsd, self._claim_ptm, self._claim_mem,
                            self._claim_slice,
                        ),
                    )
                else:
                    stats.cpi_base += delta
                if prof is not None:
                    profile_delta(
                        prof,
                        record.pc,
                        delta,
                        (
                            self._claim_branch, self._claim_ruu, self._claim_lsq,
                            self._claim_lsd, self._claim_ptm, self._claim_mem,
                            self._claim_slice,
                        ),
                    )
            self.last_commit = commit
            if self.first_commit is None:
                self.first_commit = commit
            self.commit_ring.append(commit)
            if len(self.commit_ring) > cfg.ruu_size:
                self.commit_ring.popleft()
            if is_mem:
                self.mem_commit_ring.append(commit)
                if len(self.mem_commit_ring) > cfg.lsq_size:
                    self.mem_commit_ring.popleft()
            if klass is OpClass.STORE:
                # The store writes the hierarchy at commit (hidden by
                # the store buffer; latency not charged to commit).
                self.hierarchy.access_data(record.mem_addr)
                entry = _StoreEntry(
                    self.seq, record.mem_addr, agen, data_ready, commit, dispatch
                )
                self.store_window.append(entry)
                if len(self.store_window) > cfg.lsq_size:
                    self.store_window.popleft()

            if ev is not None and self.seq >= first_seq:
                pc = record.pc
                seq = self.seq
                fetch_args: dict = {"mnemonic": m}
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
                    {"complete": complete, "mispredicted": mispredicted},
                )
                if seq % CPI_SAMPLE_INTERVAL == 0:
                    # Cumulative component counts as a Perfetto counter
                    # track: slopes show where cycles are going.
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

        stats.instructions = max(0, count - warmup)
        stats.cycles = max(1, self.last_commit - warm_commit) if stats.instructions else 0
        # The per-delta sums telescope to (last_commit - warm_commit);
        # the only shortfall against the reported `cycles` is the
        # max(1, ...) floor on degenerate windows.  Close it so the
        # stack's exact-sum invariant holds unconditionally.
        if stats.instructions:
            attributed = (
                stats.cpi_base + stats.cpi_branch_recovery + stats.cpi_ruu_stall
                + stats.cpi_lsq_stall + stats.cpi_lsd_wait + stats.cpi_ptm_replay
                + stats.cpi_memory + stats.cpi_slice_wait
            )
            if attributed < stats.cycles:
                if prof is not None:
                    # Same correction, charged to the synthetic shortfall
                    # line so the per-PC stacks keep the exact-sum invariant.
                    profile_delta(prof, SHORTFALL_PC, stats.cycles - attributed, ())
                stats.cpi_base += stats.cycles - attributed
        else:
            # Empty measured window (e.g. trace shorter than warmup):
            # cycles is 0, so the stack must be empty too.
            stats.cpi_base = stats.cpi_branch_recovery = stats.cpi_ruu_stall = 0
            stats.cpi_lsq_stall = stats.cpi_lsd_wait = stats.cpi_ptm_replay = 0
            stats.cpi_memory = stats.cpi_slice_wait = 0
            if prof is not None:
                prof.clear()
        if gp is not None:
            gp.add_cycles(prof, stats.cycles)
        return stats

    # ----------------------------------------------------------- sub-models

    def _relax_narrow(self, times: list[int], value: int) -> list[int]:
        """§6 extension: when the result is narrow (its high slices are
        all zeros or all ones, i.e. a sign/zero extension of slice 0),
        consumers of the high slices need only wait for slice 0 — the
        high-order portion is a known constant once the width is known.
        """
        width = self.slice_bits
        low = value & ((1 << width) - 1)
        sign_extended = (low - (1 << width)) & 0xFFFFFFFF if low >> (width - 1) else low
        if value != low and value != sign_extended:
            return times
        t0 = times[0]
        if any(t > t0 for t in times[1:]):
            extra = self.stats.extra
            extra["narrow_relaxations"] = extra.get("narrow_relaxations", 0) + 1
        return [t0] * len(times)

    def _agen(self, earliest: int, base_regs: tuple[int, ...]) -> tuple[int, ...]:
        """Address generation (base + displacement) slice times."""
        if self.sliced:
            src_ready = self._src_ready(base_regs)
            return tuple(self._schedule_sliced(earliest, src_ready, OpClass.ARITH))
        start, complete = self._schedule_atomic(earliest, self._full_ready(base_regs), self.config.ex_stages)
        return (complete,) * self.num_slices if self.num_slices > 1 else (complete,)

    def _branch(self, record: TraceRecord, earliest: int, srcs: tuple[int, ...]) -> tuple[int, int]:
        """Schedule a conditional branch; returns (resolve, complete)."""
        inst = record.inst
        m = inst.mnemonic
        if m in ("beq", "bne") and self.sliced:
            src_ready = self._src_ready(srcs)
            per_slice = self._schedule_sliced(earliest, src_ready, OpClass.ZERO_TEST)
            complete = max(per_slice)
            resolve = complete
            if self.early_branch:
                predicted_taken = self.predictor.gshare.predict(record.pc)
                mispredicted = predicted_taken != record.taken
                if mispredicted and can_resolve_early(m, predicted_taken):
                    diff_slices = slices_containing_difference(
                        record.rs_val, record.rt_val, self.num_slices
                    )
                    if diff_slices:
                        if self.ooo_slices:
                            resolve = min(per_slice[k] for k in diff_slices)
                        else:
                            resolve = per_slice[diff_slices[0]]
                        if resolve < complete:
                            self.stats.early_resolved_mispredicts += 1
                            # §5.3 savings: cycles of recovery the early
                            # resolution avoided.  The branch_recovery
                            # component is *net* of these by
                            # construction (the redirect claim starts at
                            # the early resolve time); reported so the
                            # gross cost is reconstructible.
                            extra = self.stats.extra
                            extra["early_branch_saved_cycles"] = (
                                extra.get("early_branch_saved_cycles", 0)
                                + (complete - resolve)
                            )
            return resolve, complete
        if self.sliced:
            # Sign-testing branches compare via a sliced subtraction;
            # the outcome is known when the top (sign) slice computes.
            per_slice = self._schedule_sliced(earliest, self._src_ready(srcs), OpClass.ARITH)
            return per_slice[-1], per_slice[-1]
        # Atomic machines traverse the full EX pipe.
        start, complete = self._schedule_atomic(earliest, self._full_ready(srcs), self.config.ex_stages)
        return complete, complete


def simulate(
    config: MachineConfig,
    trace: Iterable[TraceRecord],
    max_instructions: int | None = None,
    warmup: int = 0,
    watchdog=None,
    events: EventTrace | None = None,
    mode: str | None = None,
) -> SimStats:
    """Convenience wrapper: run one configuration over a trace.

    When an observability session is active (``--metrics-out`` /
    ``--trace-events`` / ``--profile``), the run is wall-timed, its
    counters accumulate into the session registry, and cycle events
    land in the session ring buffer; while a tracer is active
    (``--trace-spans`` / ``--profile``) the run records one
    ``simulate.<config>`` span.  With neither, the only cost is two
    ``None`` checks.  *mode* overrides the ``REPRO_TIMING``
    fast/reference selection for this run.
    """
    return _simulate(config, trace, max_instructions, warmup, watchdog, events, mode)


def simulate_configs(
    configs: Sequence[MachineConfig],
    trace: Iterable[TraceRecord],
    warmup: int = 0,
) -> list[SimStats]:
    """Run every configuration over one trace; returns their stats in order.

    Equal to ``[simulate(c, trace, warmup=warmup) for c in configs]``,
    but in fast mode the first run's front-end columns
    (:mod:`repro.timing.frontend`) are handed to each later config with
    the same :func:`~repro.timing.frontend.front_end_key`: the
    predictor, the caches and the partial-tag way selection are
    simulated once per trace and replayed under each config's own
    latencies.  A replaying run is built on the pass's own predictor and
    caches, which it never touches, instead of fresh ones.  Columns are
    shared only when their pass met no store-forwarding hazard.
    Records that are not a :class:`~repro.emulator.trace.Trace` are
    converted to one once, for every config.
    """
    trace = as_trace(trace)
    shared: dict = {}
    return [
        _simulate(config, trace, None, warmup, None, None, None, shared)
        for config in configs
    ]


def run_traced(sim: TimingSimulator, trace, *args, **kwargs) -> SimStats:
    """``sim.run(trace, ...)`` under a ``simulate.<config>`` span while a
    tracer is active (``records``: instructions simulated)."""
    with traced(f"simulate.{sim.config.name}", category="simulate") as span:
        stats = sim.run(trace, *args, **kwargs)
        if span is not None:
            span.args["records"] = stats.instructions
    return stats


def _simulate(config, trace, max_instructions, warmup, watchdog, events, mode, shared=None):
    """One :func:`simulate` run; with *shared* (front-end key -> columns),
    replay matching columns and offer this run's for later ones."""
    from repro.timing.fastpath import default_timing_mode

    session = _run_context().session
    if session is not None and events is None:
        events = session.events
    t0 = time.perf_counter()
    key = columns = None
    if shared is not None and (mode or default_timing_mode()) == "fast":
        key = front_end_key(config)
        columns = shared.get(key)
    if columns is None:
        sim = TimingSimulator(config, events=events, mode=mode)
    else:
        front = columns.front
        sim = TimingSimulator(
            config, events=events, mode=mode,
            predictor=front.predictor, hierarchy=front.hierarchy,
        )
        sim._replay = columns
    stats = run_traced(sim, trace, max_instructions, warmup=warmup, watchdog=watchdog)
    if key is not None and columns is None and not sim.front_end.hazards:
        shared[key] = sim.front_end
    if session is not None:
        session.record_run(stats, time.perf_counter() - t0)
        session.heartbeat(f"simulate.{session.current_benchmark or '?'}/{stats.config_name}")
    return stats


__all__ = ["TimingSimulator", "simulate", "simulate_configs"]
