"""SMARTS-style statistical sampling over the blocks-tier emulator.

Full detailed simulation pays the per-instruction timing model (and
trace-record construction) for every retired instruction, which caps
feasible budgets at tens of thousands of instructions per cell.  This
module trades a small, quantified amount of accuracy for another order
of magnitude: it alternates

* **warming fast-forward spans** — warm-variant block-compiled
  execution (:meth:`~repro.emulator.machine.Machine.run_warm`): no
  ``TraceRecord`` objects, but every memory operand touches the cache
  hierarchy and every control transfer trains the branch predictor, so
  microarchitectural state stays *continuously* warm between windows.
  Cache content has far longer history than any affordable discrete
  warming span — a line loaded 100k instructions ago still turns a
  memory miss into an L2 hit — which is why SMARTS warms functionally
  throughout the fast-forward rather than in bursts before windows,
* **optional trace-mode warming spans** (``plan.warm``) — the discrete
  fallback used when the machine has no blocks engine, and
* **measurement windows** — short detailed-simulation slices run on a
  fresh :class:`~repro.timing.simulator.TimingSimulator` that *adopts*
  the warmed predictor/hierarchy
  (:meth:`~repro.timing.simulator.TimingSimulator.adopt_warm_state`)
  plus a detailed-warmup prefix that is simulated but not measured,

and reports the per-window IPC / CPI-stack population through a
ratio estimator with bootstrap confidence intervals.  With a CI target
set, the run auto-extends window by window until the relative CI
half-width reaches the target (or the guest halts / the window cap is
hit) — the SMARTS "online" sampling regime.

Everything is deterministic: the window schedule is a pure function of
the :class:`SamplingPlan` (the seed fixes the stratified window
placement and the bootstrap resamples), so sampled sweep cells replay
bit-identically under ``--resume`` and arbitrary ``--jobs N`` — the
same discipline ``chaos_sweep.py`` asserts for exact cells.  The plan's
:meth:`~SamplingPlan.canonical` string is threaded into the journal
cell key for exactly that reason.
"""

from __future__ import annotations

import copy
import random
from dataclasses import dataclass, field, replace

from repro.branch.predictor import FrontEndPredictor
from repro.core.config import MachineConfig
from repro.memsys.hierarchy import MemoryHierarchy
from repro.timing.stats import SimStats

#: CPI-stack component fields whose per-instruction rates get bootstrap
#: intervals alongside IPC (order matches the attribution waterfall).
CPI_COMPONENTS: tuple[str, ...] = (
    "cpi_base",
    "cpi_branch_recovery",
    "cpi_ruu_stall",
    "cpi_lsq_stall",
    "cpi_lsd_wait",
    "cpi_ptm_replay",
    "cpi_memory",
    "cpi_slice_wait",
)


@dataclass(frozen=True)
class SamplingPlan:
    """All knobs of one systematic-sampling run (pure value object).

    One *period* of ``interval`` instructions is laid out as::

        [ warming ff | trace warming | detailed warmup | window | warming ff ]

    so ``interval`` must cover ``warm + warmup + window``.  The
    fast-forward spans warm caches and predictors continuously at
    block-compiled speed; ``warm`` adds a discrete trace-mode warming
    span before each window and defaults to 0 (it only earns its cost
    on machines without a blocks engine).  The seed fixes the
    stratified window placement — each period's measured span lands at
    a seeded-uniform offset inside the period, breaking aliasing
    against guest loop periods — and the bootstrap resamples; two runs
    with equal plans and budgets produce bit-identical results.
    """

    window: int = 500          #: measured instructions per window
    warmup: int = 200          #: detailed-simulated but unmeasured prefix
    warm: int = 0              #: trace-mode warming instructions per period
    interval: int = 20_000     #: systematic-sampling period
    ci_target: float = 0.0     #: relative CI half-width target (0 = fixed budget)
    confidence: float = 0.95   #: bootstrap confidence level
    min_windows: int = 2       #: windows required before a CI check can stop the run
    max_windows: int = 512     #: auto-extension cap
    seed: int = 2003           #: window-placement + bootstrap RNG seed
    resamples: int = 200       #: bootstrap resample count

    def validate(self) -> "SamplingPlan":
        if self.window < 1:
            raise ValueError(f"sampling window must be >= 1, got {self.window}")
        if self.warmup < 0 or self.warm < 0:
            raise ValueError("sampling warmup/warm spans must be >= 0")
        if self.interval < self.warm + self.warmup + self.window:
            raise ValueError(
                f"sampling interval {self.interval} cannot fit "
                f"warm {self.warm} + warmup {self.warmup} + window {self.window}"
            )
        if not 0.0 <= self.ci_target < 1.0:
            raise ValueError(f"ci_target must be in [0, 1), got {self.ci_target}")
        if not 0.5 <= self.confidence < 1.0:
            raise ValueError(f"confidence must be in [0.5, 1), got {self.confidence}")
        if self.min_windows < 2:
            raise ValueError("min_windows must be >= 2 (a CI needs variance)")
        if self.max_windows < self.min_windows:
            raise ValueError("max_windows must be >= min_windows")
        if self.resamples < 2:
            raise ValueError("resamples must be >= 2")
        return self

    def canonical(self) -> str:
        """Deterministic identity string (journal cell-key component)."""
        return "|".join(
            (
                f"window={self.window}",
                f"warmup={self.warmup}",
                f"warm={self.warm}",
                f"interval={self.interval}",
                f"ci={self.ci_target!r}",
                f"conf={self.confidence!r}",
                f"min={self.min_windows}",
                f"max={self.max_windows}",
                f"seed={self.seed}",
                f"resamples={self.resamples}",
            )
        )

    def with_seed(self, seed: int) -> "SamplingPlan":
        return replace(self, seed=seed)


class WarmState:
    """Functionally-warmed microarchitectural state carried across windows.

    Holds the branch predictors and cache hierarchy that warming spans
    train and measurement windows adopt; because the same objects flow
    through every span *and* every window, state stays continuously
    warm across the whole sampled run, exactly as it would in one
    unbroken detailed simulation.
    """

    def __init__(self, config: MachineConfig) -> None:
        self.config = config
        self.predictor = FrontEndPredictor(
            config.gshare_entries, config.btb_entries, config.btb_assoc, config.ras_depth
        )
        self.hierarchy = MemoryHierarchy(
            l1_latency=config.l1_latency,
            l2_latency=config.l2_latency,
            memory_latency=config.memory_latency,
        )
        self._line_shift = self.hierarchy.l1i.config.offset_bits
        self._line = -1
        self.warmed = 0

    def observe(self, record) -> None:
        """Feed one architectural trace record through the warm structures.

        Mirrors what the timing model touches per instruction: one
        I-side access per fetch-line transition, one D-side access per
        load/store, and predictor training on every control transfer —
        without any of the timing bookkeeping.
        """
        pc = record.pc
        line = pc >> self._line_shift
        if line != self._line:
            self._line = line
            self.hierarchy.access_instruction(pc)
        if record.mem_addr >= 0:
            self.hierarchy.access_data(record.mem_addr)
        if record.inst.is_control:
            self.predictor.predict_and_train(record)
        self.warmed += 1

    def checkpoint(self) -> "WarmState":
        """Deep snapshot of the warmed state (window checkpoint/restore)."""
        return copy.deepcopy(self)


@dataclass
class MachineCheckpoint:
    """Architectural snapshot of a :class:`~repro.emulator.machine.Machine`.

    Captures only the mutable guest state (registers, PC, memory,
    retirement count, halt/exit status, syscall output) so a window —
    or an entire sampled region — can be re-executed from a known
    point without rebuilding the machine or its bound dispatch tables.
    """

    regs: list
    pc: int
    instret: int
    halted: bool
    exit_code: int
    output: bytearray
    memory: object

    @classmethod
    def capture(cls, machine) -> "MachineCheckpoint":
        return cls(
            regs=list(machine.regs),
            pc=machine.pc,
            instret=machine.instret,
            halted=machine.halted,
            exit_code=machine.exit_code,
            output=bytearray(machine.output),
            memory=copy.deepcopy(machine.memory),
        )

    def restore(self, machine) -> None:
        machine.regs[:] = self.regs
        machine.pc = self.pc
        machine.instret = self.instret
        machine.halted = self.halted
        machine.exit_code = self.exit_code
        machine.output[:] = self.output
        machine.memory = copy.deepcopy(self.memory)


@dataclass
class SamplingResult:
    """Outcome of one sampled run."""

    stats: SimStats                  #: merged window stats + ``sampling.*`` extra
    plan: SamplingPlan
    windows: list[SimStats] = field(default_factory=list)
    ipc_point: float = 0.0           #: ratio-estimator IPC over all windows
    ipc_lo: float = 0.0
    ipc_hi: float = 0.0
    rel_halfwidth: float = float("inf")
    skipped: int = 0                 #: warming-fast-forward instructions
    warmed: int = 0                  #: functional-warming instructions
    detail_warmup: int = 0           #: detailed-simulated but unmeasured
    measured: int = 0                #: instructions in measured windows
    halted: bool = False             #: guest halted before the schedule ended
    trajectory: list[tuple[int, float]] = field(default_factory=list)
    cpi_ci: dict[str, tuple[float, float]] = field(default_factory=dict)

    @property
    def executed(self) -> int:
        """Instructions retired inside the sampled region (all spans)."""
        return self.skipped + self.warmed + self.detail_warmup + self.measured


def _percentile_ci(values: list[float], confidence: float) -> tuple[float, float]:
    """Nearest-rank percentile interval over bootstrap statistics."""
    ordered = sorted(values)
    n = len(ordered)
    alpha = (1.0 - confidence) / 2.0
    lo_idx = min(n - 1, max(0, int(alpha * n)))
    hi_idx = min(n - 1, max(0, int((1.0 - alpha) * n)))
    return ordered[lo_idx], ordered[hi_idx]


def bootstrap_cis(windows: list[SimStats], plan: SamplingPlan) -> dict:
    """Bootstrap confidence intervals over per-window stats.

    Windows are resampled with replacement; each resample's IPC is the
    ratio estimator ``sum(instructions) / sum(cycles)`` (and each CPI
    component's rate ``sum(component) / sum(instructions)``), matching
    how :meth:`SimStats.merge_all` pools the real windows.  The RNG is
    seeded from ``(plan.seed, len(windows))`` so every CI evaluation —
    including the intermediate auto-extension checks — is a pure
    function of the plan and the windows it saw.
    """
    n = len(windows)
    insts = [w.instructions for w in windows]
    cycles = [w.cycles for w in windows]
    comps = {c: [getattr(w, c) for w in windows] for c in CPI_COMPONENTS}
    total_i = sum(insts)
    total_c = sum(cycles)
    point = total_i / total_c if total_c else 0.0
    out: dict = {
        "ipc_point": point,
        "cpi_point": {c: sum(v) / total_i if total_i else 0.0 for c, v in comps.items()},
    }
    if n < 2 or total_i == 0:
        out["ipc_ci"] = (point, point)
        out["cpi_ci"] = {c: (v, v) for c, v in out["cpi_point"].items()}
        out["rel_halfwidth"] = float("inf")
        return out
    rng = random.Random(f"sampling:{plan.seed}:{n}")
    randrange = rng.randrange
    ipc_samples: list[float] = []
    comp_samples: dict[str, list[float]] = {c: [] for c in CPI_COMPONENTS}
    for _ in range(plan.resamples):
        idxs = [randrange(n) for _ in range(n)]
        ti = sum(insts[i] for i in idxs)
        tc = sum(cycles[i] for i in idxs)
        ipc_samples.append(ti / tc if tc else 0.0)
        if ti:
            for c in CPI_COMPONENTS:
                vals = comps[c]
                comp_samples[c].append(sum(vals[i] for i in idxs) / ti)
    out["ipc_ci"] = _percentile_ci(ipc_samples, plan.confidence)
    out["cpi_ci"] = {
        c: _percentile_ci(s, plan.confidence) if s else (0.0, 0.0)
        for c, s in comp_samples.items()
    }
    lo, hi = out["ipc_ci"]
    out["rel_halfwidth"] = (hi - lo) / (2.0 * point) if point else float("inf")
    return out


def _attach_extra(result: SamplingResult) -> None:
    """Record the sampling summary in ``stats.extra`` (all floats).

    ``extra`` rides bit-identically through the journal result store
    (:func:`repro.experiments.journal.stats_to_payload`), the
    supervised pool and the obs registry, so sampled cells need no new
    serialization format anywhere downstream.
    """
    plan = result.plan
    extra = result.stats.extra
    extra["sampling.windows"] = float(len(result.windows))
    extra["sampling.window"] = float(plan.window)
    extra["sampling.warmup"] = float(plan.warmup)
    extra["sampling.warm"] = float(plan.warm)
    extra["sampling.interval"] = float(plan.interval)
    extra["sampling.seed"] = float(plan.seed)
    extra["sampling.ci_target"] = float(plan.ci_target)
    extra["sampling.confidence"] = float(plan.confidence)
    extra["sampling.instructions_skipped"] = float(result.skipped)
    extra["sampling.instructions_warmed"] = float(result.warmed)
    extra["sampling.instructions_detail_warmup"] = float(result.detail_warmup)
    extra["sampling.instructions_measured"] = float(result.measured)
    extra["sampling.ipc_point"] = result.ipc_point
    extra["sampling.ipc_ci_lo"] = result.ipc_lo
    extra["sampling.ipc_ci_hi"] = result.ipc_hi
    extra["sampling.ci_rel_halfwidth"] = (
        result.rel_halfwidth if result.rel_halfwidth != float("inf") else -1.0
    )
    extra["sampling.ci_checks"] = float(len(result.trajectory))
    for comp, (lo, hi) in result.cpi_ci.items():
        extra[f"sampling.{comp}_ci_lo"] = lo
        extra[f"sampling.{comp}_ci_hi"] = hi


def stats_error_bars(stats: SimStats) -> tuple[float, float] | None:
    """The IPC 95% CI carried by *stats*, or ``None`` for exact runs.

    The uniform probe every downstream renderer (sweep tables, Table 1,
    ``repro-report`` claim scoring) uses to decide between point and
    interval treatment of a result.
    """
    lo = stats.extra.get("sampling.ipc_ci_lo")
    hi = stats.extra.get("sampling.ipc_ci_hi")
    if lo is None or hi is None:
        return None
    return float(lo), float(hi)


def _publish_session(result: SamplingResult) -> None:
    """Accumulate ``sampling.*`` metrics into the active obs session."""
    from repro.obs.session import active_session

    session = active_session()
    if session is None:
        return
    reg = session.registry
    reg.counter("sampling.windows", help="detailed measurement windows run").inc(
        len(result.windows)
    )
    reg.counter(
        "sampling.instructions_skipped", help="instructions fast-forwarded in run mode"
    ).inc(result.skipped)
    reg.counter(
        "sampling.instructions_warmed", help="functional-warming instructions"
    ).inc(result.warmed)
    reg.counter(
        "sampling.instructions_measured", help="instructions inside measured windows"
    ).inc(result.measured)
    reg.gauge(
        "sampling.ci_rel_halfwidth", help="relative IPC CI half-width at run end"
    ).set(result.rel_halfwidth if result.rel_halfwidth != float("inf") else -1.0)
    hist = reg.histogram(
        "sampling.ci_checks_windows", help="windows accumulated at each CI evaluation"
    )
    for n_windows, _half in result.trajectory:
        hist.observe(n_windows)


def sample_benchmark(
    name: str,
    config: MachineConfig,
    plan: SamplingPlan,
    budget: int,
    iters: int | None = None,
    skip: int | None = None,
    profile: str = "ref",
    dispatch: str | None = None,
    watchdog=None,
) -> SamplingResult:
    """Sampled detailed simulation of one benchmark under one config.

    *budget* is the instruction horizon the systematic schedule covers
    (``budget // interval`` periods, at least one); with a CI target
    the run then auto-extends period by period until the relative CI
    half-width meets it.  Initialization is skipped exactly as
    :meth:`repro.workloads.suite.Workload.trace` does (same skip-hint,
    same guest-profile suspension), so a sampled cell measures the same
    steady-state region an exact cell does.  *dispatch* picks the
    emulator tier (default: ``REPRO_DISPATCH``); the reference tier
    warms by trace-mode observation, bit-identically but slower.
    """
    from repro.emulator.machine import Machine
    from repro.obs.guestprof import suspended_guest_profile
    from repro.timing.simulator import TimingSimulator
    from repro.workloads.suite import get_workload, skip_hint

    plan.validate()
    workload = get_workload(name)
    machine = Machine(workload.build(iters, profile), dispatch=dispatch)
    if skip is None:
        skip = skip_hint(name, profile)
    warm = WarmState(config)
    result = SamplingResult(stats=SimStats(config_name=config.name), plan=plan)
    blocks_warm = machine._engine is not None
    if blocks_warm:
        machine.attach_warm_sink(warm.hierarchy, warm.predictor)

    n_periods = min(max(1, budget // plan.interval), plan.max_windows)
    if plan.ci_target > 0.0:
        n_periods = max(n_periods, plan.min_windows)
    slack = plan.interval - plan.warm - plan.warmup - plan.window
    # Stratified placement: each period's warm+window span lands at a
    # seeded-uniform offset within the period instead of a fixed phase.
    # The guests are short periodic kernels, so strict systematic
    # sampling aliases badly against loop periods (a fixed phase can be
    # >10% biased on regular kernels); uniform-within-stratum placement
    # makes the estimator unbiased regardless of periodicity while
    # keeping the whole schedule a pure function of the seed.
    place = random.Random(f"sampling-phase:{plan.seed}").randrange

    def fast_forward(span: int) -> int:
        # Warming fast-forward: block-compiled execution whose warm
        # hooks train the same predictor/hierarchy objects the windows
        # adopt.  Outside any guest profile (like the init skip in
        # Workload.trace) so profiles cover exactly the measured
        # windows.  Without a blocks engine, trace-mode observation is
        # the slow-but-faithful equivalent.
        with suspended_guest_profile():
            if blocks_warm:
                return machine.run_warm(span, watchdog=watchdog)
            ran = 0
            for record in machine.trace(span, watchdog=watchdog):
                warm.observe(record)
                ran += 1
            return ran

    with suspended_guest_profile():
        machine.run(skip, watchdog=watchdog)

    window_budget = plan.warmup + plan.window
    cis: dict = {}
    while not machine.halted and len(result.windows) < plan.max_windows:
        pre = place(slack + 1)
        post = slack - pre
        if pre:
            result.skipped += fast_forward(pre)
        if machine.halted:
            break
        if plan.warm:
            with suspended_guest_profile():
                for record in machine.trace(plan.warm, watchdog=watchdog):
                    warm.observe(record)
                    result.warmed += 1
            if machine.halted:
                break
        sim = TimingSimulator(config)
        sim.adopt_warm_state(warm.predictor, warm.hierarchy)
        before = machine.instret
        stats = sim.run(machine.trace(window_budget, watchdog=watchdog), warmup=plan.warmup)
        consumed = machine.instret - before
        result.detail_warmup += min(consumed, plan.warmup)
        if not stats.instructions:
            break  # the guest halted inside the detailed warmup: nothing measured
        result.measured += stats.instructions
        result.windows.append(stats)
        if post and not machine.halted:
            result.skipped += fast_forward(post)
        if plan.ci_target > 0.0:
            # Auto-extension: keep adding windows (past the scheduled
            # budget if needed) until the CI target is met.
            if len(result.windows) >= plan.min_windows:
                cis = bootstrap_cis(result.windows, plan)
                result.trajectory.append((len(result.windows), cis["rel_halfwidth"]))
                if cis["rel_halfwidth"] <= plan.ci_target:
                    break
        elif len(result.windows) >= n_periods:
            break

    if not result.windows:
        raise ValueError(
            f"sampling produced no measurement windows for {name!r}: "
            f"budget {budget} / guest length too small for interval {plan.interval}"
        )
    result.stats = SimStats.merge_all(result.windows)
    cis = bootstrap_cis(result.windows, plan)
    result.ipc_point = cis["ipc_point"]
    result.ipc_lo, result.ipc_hi = cis["ipc_ci"]
    result.rel_halfwidth = cis["rel_halfwidth"]
    result.cpi_ci = dict(cis["cpi_ci"])
    result.halted = machine.halted
    _attach_extra(result)
    _publish_session(result)
    return result


__all__ = [
    "CPI_COMPONENTS",
    "MachineCheckpoint",
    "SamplingPlan",
    "SamplingResult",
    "WarmState",
    "bootstrap_cis",
    "sample_benchmark",
    "stats_error_bars",
]
