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
  throughout the fast-forward rather than in bursts before windows
  (without a blocks engine, trace-mode observation does the same
  training, slower), and
* **measurement windows** — short detailed-simulation slices run on a
  fresh :class:`~repro.timing.simulator.TimingSimulator` built on the
  warmed predictor/hierarchy, plus a detailed-warmup prefix that is
  simulated but not measured,

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

None of the init skip, the warming or the window records depends on the
machine config, so :func:`sample_configs` measures several configs on
one machine and one warming pass: the first config of a group (the
*lead*) walks each window's front-end pass over the shared warm state,
and every other one (a *rider*) replays the lead's columns under its own
timing (:mod:`repro.timing.frontend`).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field, replace

from repro.branch.predictor import FrontEndPredictor
from repro.context import current as _run_context
from repro.core.config import MachineConfig
from repro.memsys.hierarchy import MemoryHierarchy
from repro.timing.frontend import FrontEnd, HazardDivergence, front_end_key, record_kind
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

#: Bootstrap confidence level of every sampled interval.
CONFIDENCE = 0.95

#: Windows required before a CI check can stop a run (a CI needs variance).
MIN_WINDOWS = 2

#: Bootstrap resamples per CI evaluation.
RESAMPLES = 200


@dataclass(frozen=True)
class SamplingPlan:
    """All knobs of one systematic-sampling run (pure value object).

    One *period* of ``interval`` instructions is laid out as::

        [ warming ff | detailed warmup | window | warming ff ]

    so ``interval`` must cover ``warmup + window``.  The fast-forward
    spans warm caches and predictors continuously at block-compiled
    speed.  The seed fixes the
    stratified window placement — each period's measured span lands at
    a seeded-uniform offset inside the period, breaking aliasing
    against guest loop periods — and the bootstrap resamples; two runs
    with equal plans and budgets produce bit-identical results.
    """

    window: int = 500          #: measured instructions per window
    warmup: int = 200          #: detailed-simulated but unmeasured prefix
    interval: int = 20_000     #: systematic-sampling period
    ci_target: float = 0.0     #: relative CI half-width target (0 = fixed budget)
    max_windows: int = 512     #: auto-extension cap
    seed: int = 2003           #: window-placement + bootstrap RNG seed

    def validate(self) -> "SamplingPlan":
        if self.window < 1:
            raise ValueError(f"sampling window must be >= 1, got {self.window}")
        if self.warmup < 0:
            raise ValueError("sampling warmup must be >= 0")
        if self.interval < self.warmup + self.window:
            raise ValueError(
                f"sampling interval {self.interval} cannot fit "
                f"warmup {self.warmup} + window {self.window}"
            )
        if not 0.0 <= self.ci_target < 1.0:
            raise ValueError(f"ci_target must be in [0, 1), got {self.ci_target}")
        if self.max_windows < MIN_WINDOWS:
            raise ValueError(f"max_windows must be >= {MIN_WINDOWS}")
        return self

    def canonical(self) -> str:
        """Deterministic identity string (journal cell-key component).

        ``warm=0`` names a trace-mode warming knob that no longer
        exists, and ``conf``, ``min`` and ``resamples`` name what are
        now module constants; they stay so existing journals keep
        their cell keys.
        """
        return "|".join(
            (
                f"window={self.window}",
                f"warmup={self.warmup}",
                "warm=0",
                f"interval={self.interval}",
                f"ci={self.ci_target!r}",
                f"conf={CONFIDENCE!r}",
                f"min={MIN_WINDOWS}",
                f"max={self.max_windows}",
                f"seed={self.seed}",
                f"resamples={RESAMPLES}",
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
        self._front = FrontEnd(self.predictor, self.hierarchy)

    def observe(self, record) -> None:
        """Feed one architectural trace record through the warm structures.

        Runs the timing model's own per-record front-end step
        (:meth:`repro.timing.frontend.FrontEnd.step`): one I-side access
        per fetch-line transition, the data access of a load or store,
        and predictor training on every control transfer — without any
        of the timing bookkeeping.
        """
        inst = record.inst
        self._front.step(
            record.pc, record_kind(inst), record.mem_addr, inst, record.taken, record.next_pc
        )


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
    detail_warmup: int = 0           #: detailed-simulated but unmeasured
    measured: int = 0                #: instructions in measured windows
    halted: bool = False             #: guest halted before the schedule ended
    trajectory: list[tuple[int, float]] = field(default_factory=list)
    cpi_ci: dict[str, tuple[float, float]] = field(default_factory=dict)


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
    for _ in range(RESAMPLES):
        idxs = [randrange(n) for _ in range(n)]
        ti = sum(insts[i] for i in idxs)
        tc = sum(cycles[i] for i in idxs)
        ipc_samples.append(ti / tc if tc else 0.0)
        if ti:
            for c in CPI_COMPONENTS:
                vals = comps[c]
                comp_samples[c].append(sum(vals[i] for i in idxs) / ti)
    out["ipc_ci"] = _percentile_ci(ipc_samples, CONFIDENCE)
    out["cpi_ci"] = {
        c: _percentile_ci(s, CONFIDENCE) if s else (0.0, 0.0)
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
    serialization format anywhere downstream: a sampled sweep's
    metrics dump carries these as ``sim.extra.sampling.*``, and
    sampling records no metric of its own.
    """
    plan = result.plan
    extra = result.stats.extra
    extra["sampling.windows"] = float(len(result.windows))
    extra["sampling.window"] = float(plan.window)
    extra["sampling.warmup"] = float(plan.warmup)
    extra["sampling.interval"] = float(plan.interval)
    extra["sampling.seed"] = float(plan.seed)
    extra["sampling.ci_target"] = float(plan.ci_target)
    extra["sampling.confidence"] = float(CONFIDENCE)
    extra["sampling.instructions_skipped"] = float(result.skipped)
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
    :meth:`repro.workloads.suite.Workload.trace` does (same skip hint),
    so a sampled cell measures the same steady-state region an exact
    cell does.  *dispatch* picks the emulator tier (default:
    ``REPRO_DISPATCH``); the reference tier warms by trace-mode
    observation, bit-identically but slower.
    This is ``sample_configs(name, [config], ...)[0]``.
    """
    return sample_configs(
        name, [config], plan, budget, iters=iters, skip=skip, profile=profile,
        dispatch=dispatch, watchdog=watchdog,
    )[0]


def sample_configs(
    name: str,
    configs,
    plan: SamplingPlan,
    budget: int,
    iters: int | None = None,
    skip: int | None = None,
    profile: str = "ref",
    dispatch: str | None = None,
    watchdog=None,
) -> list[SamplingResult]:
    """:func:`sample_benchmark` for each of *configs*; results in order.

    Each result equals the config's own :func:`sample_benchmark` run,
    but configs that share a :func:`~repro.timing.frontend.front_end_key`
    run as one group: one machine, one init skip and one warming pass,
    and one trace per window.  The group's first config (the lead) walks
    each window's front-end pass over the shared warm state; the others
    (riders) replay its columns, hazard decisions included, and never
    touch the shared predictor or caches.  A rider that would decide a
    hazard load differently drops out and runs on its own.  Every
    config runs on its own when ``plan.ci_target`` is set (each stops at
    its own window count) and under ``REPRO_TIMING=reference`` (the
    reference loop walks its own structures).

    *watchdog* budgets the whole call.  A rider re-run on its own adds
    one config's share (``max_seconds / len(configs)``) to its
    wall-clock budget, so the call never times out where its configs,
    run one by one, would not.
    """
    plan.validate()
    configs = list(configs)
    gp = _run_context().collector
    if gp is not None:
        # Route the windows' counts and cycles to this benchmark's
        # bucket, as an exact collection does.
        gp.begin_benchmark(name)
    args = (plan, budget, iters, skip, profile, dispatch, watchdog)
    results: list = [None] * len(configs)
    for group in _groups(configs, plan):
        for i, result in zip(group, _sample_group(name, [configs[i] for i in group], *args)):
            results[i] = result
    dropped = [i for i, result in enumerate(results) if result is None]
    if dropped and watchdog is not None and watchdog.max_seconds is not None:
        watchdog.max_seconds += len(dropped) * watchdog.max_seconds / len(configs)
    for i in dropped:
        (results[i],) = _sample_group(name, [configs[i]], *args)
    return results


def _groups(configs: list[MachineConfig], plan: SamplingPlan) -> list[list[int]]:
    """Indices of the configs that can share a machine, in order."""
    from repro.timing.fastpath import default_timing_mode

    if (
        len(configs) < 2
        or plan.ci_target > 0.0
        or default_timing_mode() == "reference"
    ):
        return [[i] for i in range(len(configs))]
    groups: dict[tuple, list[int]] = {}
    for i, config in enumerate(configs):
        groups.setdefault(front_end_key(config), []).append(i)
    return list(groups.values())


def _sample_group(
    name, configs, plan, budget, iters, skip, profile, dispatch, watchdog,
) -> list[SamplingResult | None]:
    """The sampling loop for one group of configs, lead first.

    Returns one result per config, ``None`` for a rider that dropped
    out.  Riders see exactly the windows the lead sees, so the counts
    of skipped and measured instructions are the lead's.

    Each window's trace counts into the run context as one emulated
    collection (``emulate.instructions``, ``emulate.collections``), as
    an exact collection does, and an active guest profile counts its
    records once for the lead and once for each rider, as a config
    sampled on its own would.  The init skip and the warming retire no
    trace records and stay out of both; only the block engine's
    counters see them.  An active tracer
    records the init skip (``skip.<benchmark>``), each warming
    fast-forward (``warm.<benchmark>``), each window's trace
    (``window.<benchmark>``) and each timing run (``simulate.<config>``).
    """
    from repro.emulator.machine import Machine
    from repro.emulator.trace import Trace
    from repro.obs.guestprof import (
        GuestProfileCollector,
        profile_from_records,
        redirected_guest_profile,
    )
    from repro.obs.tracing import traced
    from repro.timing.simulator import TimingSimulator, run_traced
    from repro.workloads.suite import get_workload, skip_hint

    workload = get_workload(name)
    machine = Machine(workload.build(iters, profile), dispatch=dispatch)
    if skip is None:
        skip = skip_hint(name, profile)
    lead_config = configs[0]
    warm = WarmState(lead_config)
    result = SamplingResult(stats=SimStats(config_name=lead_config.name), plan=plan)
    blocks_warm = machine._engine is not None
    if blocks_warm:
        machine.attach_warm_sink(warm.hierarchy, warm.predictor)
    # Each rider's windows, and its share of the guest profile: a rider
    # that drops out runs again on its own, so shares are folded in last.
    riders = {i: [] for i in range(1, len(configs))}
    context = _run_context()
    gp = context.collector
    shares = {i: GuestProfileCollector() for i in riders} if gp is not None else {}
    for share in shares.values():
        share.begin_benchmark(name)

    n_periods = min(max(1, budget // plan.interval), plan.max_windows)
    if plan.ci_target > 0.0:
        n_periods = max(n_periods, MIN_WINDOWS)
    slack = plan.interval - plan.warmup - plan.window
    # Stratified placement: each period's warmup+window span lands at a
    # seeded-uniform offset within the period instead of a fixed phase.
    # The guests are short periodic kernels, so strict systematic
    # sampling aliases badly against loop periods (a fixed phase can be
    # >10% biased on regular kernels); uniform-within-stratum placement
    # makes the estimator unbiased regardless of periodicity while
    # keeping the whole schedule a pure function of the seed.
    place = random.Random(f"sampling-phase:{plan.seed}").randrange

    def fast_forward(length: int) -> int:
        # Warming fast-forward: block-compiled execution whose warm
        # hooks train the same predictor/hierarchy objects the windows
        # run on.  Without a blocks engine, trace-mode observation is
        # the slow-but-faithful equivalent.
        with traced(f"warm.{name}", category="emulate") as span:
            if blocks_warm:
                ran = machine.run_warm(length, watchdog=watchdog)
            else:
                ran = 0
                for record in machine.trace(length, watchdog=watchdog):
                    warm.observe(record)
                    ran += 1
            if span is not None:
                span.args["records"] = ran
        return ran

    with traced(f"skip.{name}", category="emulate"):
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
        # One columnar trace per window, which the lead and riders share.
        with traced(f"window.{name}", category="emulate") as span:
            window = Trace.from_records(machine.trace(window_budget, watchdog=watchdog))
            if span is not None:
                span.args["records"] = len(window)
        context.count("emulate.instructions", len(window))
        context.count("emulate.collections")
        if gp is not None:
            profile_from_records(window, gp)
        sim = TimingSimulator(lead_config, predictor=warm.predictor, hierarchy=warm.hierarchy)
        stats = run_traced(sim, window, warmup=plan.warmup)
        result.detail_warmup += min(len(window), plan.warmup)
        if not stats.instructions:
            break  # the guest halted inside the detailed warmup: nothing measured
        result.measured += stats.instructions
        result.windows.append(stats)
        for i in list(riders):
            rider = TimingSimulator(configs[i], predictor=warm.predictor, hierarchy=warm.hierarchy)
            rider._replay = sim.front_end
            share = shares.get(i)
            try:
                with redirected_guest_profile(share):
                    riders[i].append(run_traced(rider, window, warmup=plan.warmup))
            except HazardDivergence:
                del riders[i]
                continue
            if share is not None:
                profile_from_records(window, share)
        if post and not machine.halted:
            result.skipped += fast_forward(post)
        if plan.ci_target > 0.0:
            # Auto-extension: keep adding windows (past the scheduled
            # budget if needed) until the CI target is met.
            if len(result.windows) >= MIN_WINDOWS:
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
    result.halted = machine.halted
    out: list[SamplingResult | None] = [result]
    for i in range(1, len(configs)):
        windows = riders.get(i)
        out.append(None if windows is None else replace(result, windows=windows))
        if windows is not None and gp is not None:
            gp.merge(shares[i])
    for run in out:
        if run is not None:
            _summarize(run)
    return out


def _summarize(result: SamplingResult) -> None:
    """Pool the windows into ``result.stats`` and attach the CIs."""
    result.stats = SimStats.merge_all(result.windows)
    cis = bootstrap_cis(result.windows, result.plan)
    result.ipc_point = cis["ipc_point"]
    result.ipc_lo, result.ipc_hi = cis["ipc_ci"]
    result.rel_halfwidth = cis["rel_halfwidth"]
    result.cpi_ci = dict(cis["cpi_ci"])
    _attach_extra(result)


__all__ = [
    "CPI_COMPONENTS",
    "SamplingPlan",
    "SamplingResult",
    "WarmState",
    "bootstrap_cis",
    "sample_benchmark",
    "sample_configs",
    "stats_error_bars",
]
