"""Cycle-by-cycle reference simulator (cross-validation model).

The production model in :mod:`repro.timing.simulator` is a one-pass
timestamp simulator: fast, but every structural constraint is encoded
as arithmetic on timestamps.  This module is an independent,
deliberately different implementation — an explicit cycle loop with a
reorder buffer, a scoreboard, per-cycle select, and an event queue —
used by the differential tests to check that the two models agree on
the machinery they share (front end, window occupancy, issue/commit
bandwidth, memory latencies, misprediction redirects).

Scope: atomic-operand configurations (the ideal machine and simple EX
pipelining), plus the *basic* bit-sliced configuration — partial
operand bypassing with in-order slice execution — where the Figure 8
slice rules have a clean cycle-loop formulation (slice *k* of an
instruction issued at cycle *c* executes at *c+k*).  The advanced
features (out-of-order slices, PTM, early LSD/branch) remain exclusive
to the timestamp model.

The two models are not expected to agree cycle-for-cycle (e.g. the
timestamp model idealizes select order), only closely — the tolerance
is asserted by ``tests/test_detailed_crossval.py``.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Iterable
from dataclasses import dataclass

from repro.branch.predictor import FrontEndPredictor
from repro.core.config import MachineConfig
from repro.emulator.trace import TraceRecord
from repro.isa.opclass import OpClass, op_class
from repro.isa.registers import NUM_EXT_REGS
from repro.memsys.hierarchy import MemoryHierarchy


@dataclass(slots=True)
class _Entry:
    """One in-flight instruction (a ROB slot)."""

    seq: int
    record: TraceRecord
    klass: OpClass
    fetched_at: int
    dispatched_at: int = -1          # cycle it entered the ROB
    schedulable_at: int = -1         # cycle it may issue (frontend drained)
    issued_at: int = -1
    complete_at: int = -1            # writeback cycle (results bypassable)
    addr_ready_at: int = -1          # memory ops: agen done
    l1_miss: bool = False            # loads: paid latency beyond L1
    committed: bool = False

    @property
    def is_mem(self) -> bool:
        return self.klass is OpClass.LOAD or self.klass is OpClass.STORE


@dataclass
class DetailedStats:
    """Counters of one detailed-simulation run."""

    config_name: str = ""
    instructions: int = 0
    cycles: int = 0
    issued: int = 0
    branch_mispredicts: int = 0
    store_forwards: int = 0

    # CPI-stack attribution: the cycle loop classifies every cycle into
    # exactly one bucket (same taxonomy as the timestamp model's
    # repro.obs.attribution waterfall), so these sum to ``cycles`` by
    # construction.  Occupancy stalls are folded into the root cause
    # blocking the oldest in-flight instruction, so the ruu/lsq/ptm
    # components stay zero here (those mechanisms are either implicit
    # or out of the reference model's scope).
    cpi_branch_recovery: int = 0
    cpi_ruu_stall: int = 0
    cpi_lsq_stall: int = 0
    cpi_lsd_wait: int = 0
    cpi_ptm_replay: int = 0
    cpi_memory: int = 0
    cpi_slice_wait: int = 0
    cpi_base: int = 0

    @property
    def ipc(self) -> float:
        return self.instructions / self.cycles if self.cycles else 0.0

    def cpi_stack(self, benchmark: str = ""):
        """This run's cycle decomposition as a checked
        :class:`repro.obs.attribution.CPIStack`."""
        from repro.obs.attribution import CPIStack

        return CPIStack.from_stats(self, benchmark=benchmark).check()


class DetailedSimulator:
    """Explicit cycle loop over the correct-path dynamic stream."""

    def __init__(self, config: MachineConfig) -> None:
        f = config.features
        advanced = (
            f.out_of_order_slices or f.early_branch_resolution
            or f.early_lsq_disambiguation or f.partial_tag_matching
        )
        if config.num_slices != 1 and advanced:
            raise ValueError(
                "the detailed reference models atomic configs and basic "
                "(bypassing-only, in-order-slice) sliced configs"
            )
        self.config = config
        self.sliced = config.num_slices > 1 and f.partial_operand_bypassing
        self.S = config.num_slices
        self.stats = DetailedStats(config_name=config.name)
        self.predictor = FrontEndPredictor(
            config.gshare_entries, config.btb_entries, config.btb_assoc, config.ras_depth
        )
        self.hierarchy = MemoryHierarchy(
            l1_latency=config.l1_latency,
            l2_latency=config.l2_latency,
            memory_latency=config.memory_latency,
        )
        # Scoreboard: extended reg -> per-slice bypassable cycles
        # (atomic configs use a single slice).
        self.reg_ready = [[0] * self.S for _ in range(NUM_EXT_REGS)]
        self.rob: deque[_Entry] = deque()
        self.lsq_count = 0

    # -------------------------------------------------------------- latency

    def _latency(self, entry: _Entry) -> int:
        cfg = self.config
        m = entry.record.inst.mnemonic
        if m in ("mult", "multu"):
            return max(cfg.int_mult_lat, cfg.ex_stages)
        if m in ("div", "divu"):
            return max(cfg.int_div_lat, cfg.ex_stages)
        if m == "mul.s":
            return max(cfg.fp_mult_lat, cfg.ex_stages)
        if m == "div.s":
            return max(cfg.fp_div_lat, cfg.ex_stages)
        if m == "sqrt.s":
            return max(cfg.fp_sqrt_lat, cfg.ex_stages)
        if m.endswith(".s") or m.endswith(".w"):
            return max(cfg.fp_alu_lat, cfg.ex_stages)
        return cfg.ex_stages

    # ------------------------------------------------------- slice scheduling

    #: Classes whose slices execute one per cycle in order (Figure 8),
    #: slice k at issue+k, when the machine is sliced.
    _PIPELINED = frozenset(
        {OpClass.LOGIC, OpClass.ARITH, OpClass.ZERO_TEST, OpClass.SHIFT_LEFT}
    )

    def _operands_ready(self, entry: _Entry, srcs, cycle: int) -> bool:
        """May the instruction begin execution at *cycle*?

        Atomic machines (and FULL/COMPARE/memory classes) need every
        operand bit; sliced pipelined classes need input slice *k* only
        by the cycle slice *k* executes (issue + k, in-order slices).
        """
        if not self.sliced:
            return all(self.reg_ready[r][0] <= cycle for r in srcs)
        klass = entry.klass
        S = self.S
        if klass in self._PIPELINED or klass is OpClass.COMPARE:
            # Slice k executes at cycle + k.  LOGIC/ARITH/ZERO_TEST and
            # the sliced-subtraction compares consume input slice k
            # there; left shifts additionally pull all lower slices,
            # which in-order execution has already satisfied.
            for r in srcs:
                ready = self.reg_ready[r]
                for k in range(S):
                    if ready[k] > cycle + k:
                        return False
                    if klass is OpClass.SHIFT_LEFT and max(ready[: k + 1]) > cycle + k:
                        return False
            return True
        if klass is OpClass.SHIFT_RIGHT:
            # Slices execute high-first: slice k at cycle + (S-1-k),
            # needing input slices k..S-1.
            for r in srcs:
                ready = self.reg_ready[r]
                for k in range(S):
                    if max(ready[k:]) > cycle + (S - 1 - k):
                        return False
            return True
        if klass is OpClass.LOAD or klass is OpClass.STORE:
            # Address generation is a sliced addition over the base
            # register (srcs[0]); store data gates completion, not
            # issue (matching the timestamp model's split).
            ready = self.reg_ready[srcs[0]]
            for k in range(S):
                if ready[k] > cycle + k:
                    return False
            return True
        # FULL units (mult/div/FP), jumps, syscalls: whole operands.
        return all(max(self.reg_ready[r]) <= cycle for r in srcs)

    def _publish(self, entry: _Entry, cycle: int, whole_at: int | None = None) -> None:
        """Write result availability to the per-slice scoreboard."""
        dsts = entry.record.inst.dst_regs()
        if not dsts:
            return
        S = self.S
        klass = entry.klass
        slice_published = klass in self._PIPELINED or klass is OpClass.SHIFT_RIGHT
        if whole_at is not None or not self.sliced or not slice_published:
            t = whole_at if whole_at is not None else entry.complete_at
            for r in dsts:
                self.reg_ready[r] = [t] * S
            return
        if klass is OpClass.SHIFT_RIGHT:
            times = [cycle + (S - 1 - k) + 1 for k in range(S)]
        else:
            times = [cycle + k + 1 for k in range(S)]
        for r in dsts:
            self.reg_ready[r] = times

    # ------------------------------------------------------------------ run

    def run(self, trace: Iterable[TraceRecord], max_instructions: int | None = None) -> DetailedStats:
        """Walk every ROB entry every cycle until the trace commits.

        Each cycle commits, selects oldest-first among ready entries,
        fetches, and is then classified into exactly one CPI-stack
        component (:meth:`_account_cycle`) — the attribution oracle the
        timestamp model's waterfall is compared against.
        """
        cfg = self.config
        records = list(trace)
        if max_instructions is not None:
            records = records[:max_instructions]
        n = len(records)
        if not n:
            self.stats.cycles = 0
            return self.stats

        cursor = 0                   # next record to fetch
        fetch_blocked_until = 0      # misprediction redirect / I$ miss
        current_line = -1
        line_ready = 0
        committed = 0
        cycle = 0
        seq = 0
        waiting_branch: _Entry | None = None
        multdiv_free = 0
        fp_free = 0
        # Frontend pipe: (entry, schedulable_cycle) FIFO between fetch
        # and dispatch is folded into per-entry timestamps.
        MAX_CYCLES = 400 * n + 10_000  # runaway guard

        while committed < n and cycle < MAX_CYCLES:
            # ---- commit (start of cycle, frees window space) ----
            commits = 0
            while self.rob and commits < cfg.commit_width:
                head = self.rob[0]
                if head.complete_at < 0 or head.complete_at + cfg.retire_stages > cycle:
                    break
                self.rob.popleft()
                if head.is_mem:
                    self.lsq_count -= 1
                    if head.klass is OpClass.STORE:
                        self.hierarchy.access_data(head.record.mem_addr)
                committed += 1
                commits += 1

            # ---- issue/select: oldest-first among ready entries ----
            issued = 0
            for entry in self.rob:
                if issued >= cfg.issue_width:
                    break
                if entry.issued_at >= 0 or entry.schedulable_at > cycle:
                    continue
                record = entry.record
                inst = record.inst
                srcs = inst.src_regs()
                if not self._operands_ready(entry, srcs, cycle):
                    continue
                m = inst.mnemonic
                # Structural: shared non-pipelined units.
                if m in ("mult", "multu", "div", "divu"):
                    if multdiv_free > cycle:
                        continue
                    multdiv_free = cycle + self._latency(entry)
                elif m in ("mul.s", "div.s", "sqrt.s"):
                    if fp_free > cycle:
                        continue
                    fp_free = cycle + self._latency(entry)
                # Memory ordering: loads may not issue past older
                # stores with unresolved addresses (Table 2 rule).
                if entry.klass is OpClass.LOAD:
                    blocked = False
                    forward = None
                    for older in self.rob:
                        if older.seq >= entry.seq:
                            break
                        if older.klass is not OpClass.STORE:
                            continue
                        if older.addr_ready_at < 0 or older.addr_ready_at > cycle:
                            blocked = True
                            break
                        if (older.record.mem_addr & ~3) == (record.mem_addr & ~3):
                            forward = older
                    if blocked:
                        continue
                    entry.issued_at = cycle
                    agen_done = cycle + cfg.ex_stages
                    entry.addr_ready_at = agen_done
                    if forward is not None:
                        # Wait for the store's data too.
                        data_at = max(
                            agen_done,
                            forward.addr_ready_at,
                            *(max(self.reg_ready[r]) for r in forward.record.inst.src_regs()),
                        )
                        entry.complete_at = data_at + 1
                        self.stats.store_forwards += 1
                    else:
                        result = self.hierarchy.access_data(record.mem_addr)
                        extra = 0 if result.l1_hit else cfg.replay_penalty
                        entry.l1_miss = not result.l1_hit
                        entry.complete_at = agen_done + result.latency + extra
                    self._publish(entry, cycle, whole_at=entry.complete_at)
                elif entry.klass is OpClass.STORE:
                    entry.issued_at = cycle
                    entry.addr_ready_at = cycle + cfg.ex_stages
                    # Store completes when address and data are both in.
                    data_at = max(max(self.reg_ready[r]) for r in srcs)
                    entry.complete_at = max(entry.addr_ready_at, data_at)
                else:
                    entry.issued_at = cycle
                    entry.complete_at = cycle + self._latency(entry)
                    self._publish(entry, cycle)
                # Misprediction redirect: the blocking branch's
                # resolution time is now known.
                if entry is waiting_branch:
                    fetch_blocked_until = entry.complete_at + 1
                    waiting_branch = None
                self.stats.issued += 1
                issued += 1

            # ---- fetch + frontend (end of cycle ordering is benign) ----
            fetched = 0
            while (
                cursor < n
                and fetched < cfg.fetch_width
                and cycle >= fetch_blocked_until
                and waiting_branch is None
                and len(self.rob) < cfg.ruu_size
            ):
                record = records[cursor]
                klass = op_class(record.inst.mnemonic)
                is_mem = klass is OpClass.LOAD or klass is OpClass.STORE
                if is_mem and self.lsq_count >= cfg.lsq_size:
                    break
                line = record.pc >> self.hierarchy.l1i.config.offset_bits
                if line != current_line:
                    current_line = line
                    res = self.hierarchy.access_instruction(record.pc)
                    line_ready = cycle + (res.latency - self.hierarchy.l1_latency)
                if line_ready > cycle:
                    break
                entry = _Entry(
                    seq=seq, record=record, klass=klass, fetched_at=cycle,
                    dispatched_at=cycle + cfg.dispatch_stage,
                    schedulable_at=cycle + cfg.frontend_depth,
                )
                seq += 1
                cursor += 1
                fetched += 1
                self.rob.append(entry)
                if is_mem:
                    self.lsq_count += 1
                # Predict in program order (the same training sequence
                # as the timestamp model).  A mispredicted control
                # blocks fetch until it resolves; a predicted-taken one
                # merely breaks the fetch group.
                inst = record.inst
                if inst.is_control:
                    outcome = self.predictor.predict_and_train(record)
                    if outcome.mispredicted:
                        if inst.is_branch:
                            self.stats.branch_mispredicts += 1
                        waiting_branch = entry
                        break
                    if outcome.predicted_taken:
                        break

            self._account_cycle(commits, cycle, fetch_blocked_until, waiting_branch, line_ready)
            cycle += 1

        self.stats.instructions = committed
        self.stats.cycles = cycle
        return self.stats

    # ------------------------------------------------------- CPI accounting

    #: Classes whose extra latency under slicing is the slice chain.
    _SLICEABLE = frozenset(
        {OpClass.LOGIC, OpClass.ARITH, OpClass.ZERO_TEST,
         OpClass.SHIFT_LEFT, OpClass.SHIFT_RIGHT, OpClass.COMPARE}
    )

    def _account_cycle(
        self,
        commits: int,
        cycle: int,
        fetch_blocked_until: int,
        waiting_branch: _Entry | None,
        line_ready: int,
    ) -> None:
        """Attribute this cycle to exactly one CPI-stack component.

        A committing cycle is base progress.  A zero-commit cycle is
        blamed on whatever blocks the oldest instruction still
        executing: mispredict redirects, I-/D-side memory latency,
        store-address disambiguation, the slice chain, or (residually)
        pipeline fill and execution latency.  One increment per cycle
        keeps the components summing to ``cycles`` exactly.
        """
        stats = self.stats
        if commits:
            stats.cpi_base += 1
            return
        if not self.rob:
            # Empty window: the front end is the bottleneck.
            if waiting_branch is not None or cycle < fetch_blocked_until:
                stats.cpi_branch_recovery += 1
            elif line_ready > cycle:
                stats.cpi_memory += 1
            else:
                stats.cpi_base += 1
            return
        oldest = None
        for entry in self.rob:
            if entry.complete_at < 0 or entry.complete_at > cycle:
                oldest = entry
                break
        if oldest is None:
            stats.cpi_base += 1  # retire-stage drain
            return
        if oldest.issued_at >= 0:
            if oldest.l1_miss:
                stats.cpi_memory += 1
            elif self.sliced and oldest.klass in self._SLICEABLE:
                stats.cpi_slice_wait += 1
            else:
                stats.cpi_base += 1
            return
        if oldest.schedulable_at > cycle:
            stats.cpi_base += 1  # frontend depth
            return
        if oldest.klass is OpClass.LOAD:
            for older in self.rob:
                if older.seq >= oldest.seq:
                    break
                if older.klass is OpClass.STORE and (
                    older.addr_ready_at < 0 or older.addr_ready_at > cycle
                ):
                    stats.cpi_lsd_wait += 1
                    return
        if self.sliced:
            stats.cpi_slice_wait += 1
        else:
            stats.cpi_base += 1


def simulate_detailed(
    config: MachineConfig,
    trace: Iterable[TraceRecord],
    max_instructions: int | None = None,
) -> DetailedStats:
    """Convenience wrapper mirroring :func:`repro.timing.simulator.simulate`."""
    return DetailedSimulator(config).run(trace, max_instructions)
