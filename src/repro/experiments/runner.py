"""Shared experiment infrastructure: trace collection and config sweeps.

Emulating a workload dominates experiment wall-clock, so the dynamic
trace is collected once per benchmark, converted once to a columnar
:class:`~repro.emulator.trace.Trace`, and replayed across every machine
configuration; a shorter request is served as a prefix of a longer
trace already held, sharing its columns.

Resilience: collection runs under an optional wall-clock watchdog
(:func:`set_wall_timeout`), and :func:`collect_trace_resilient` turns a
failing workload into a :class:`FailureRecord` — with one bounded retry
at a reduced instruction budget — instead of an aborted sweep.  A
successful retry registers a per-benchmark budget override so every
later collection of that benchmark stays inside the budget that worked.
The budget and the overrides live in the run context
(:mod:`repro.context`), which sweep workers inherit.
"""

from __future__ import annotations

import time
from collections import OrderedDict
from dataclasses import dataclass

from repro.context import current
from repro.core.config import MachineConfig
from repro.emulator.machine import default_dispatch
from repro.emulator.trace import Trace
from repro.experiments import trace_cache
from repro.harness.watchdog import Watchdog
from repro.obs.guestprof import profile_from_records
from repro.timing.simulator import simulate_configs
from repro.timing.stats import SimStats
from repro.workloads import get_workload

#: Default steady-state window for timing experiments.  Small enough
#: for pure-Python simulation, long enough for stable IPC (the paper
#: used 500M-instruction windows on native simulators).
DEFAULT_INSTRUCTIONS = 30_000

#: Instructions simulated (but not measured) before the IPC window to
#: warm caches and predictors.
DEFAULT_WARMUP = 10_000


def set_wall_timeout(seconds: float | None) -> None:
    """Set (or clear, with ``None``) the collection wall-clock budget."""
    current().wall_timeout = seconds


def wall_timeout() -> float | None:
    """The current collection wall-clock budget."""
    return current().wall_timeout


def set_budget_override(name: str, max_steps: int) -> None:
    """Cap every future collection of *name* at *max_steps*."""
    current().budget_overrides[name] = max_steps


def budget_override(name: str) -> int | None:
    """The degraded budget registered for *name*, if any."""
    return current().budget_overrides.get(name)


def _fetch(
    name: str, max_steps: int, iters: int | None, skip: int | None, profile: str
) -> Trace:
    """A trace the in-memory layer does not hold: from disk, or emulated.

    Either is counted into an active guest profile once it is whole.
    """
    context = current()
    workload = get_workload(name)
    session, tracer, gp = context.session, context.tracer, context.collector
    # L2: the persistent on-disk cache.  The key covers the program
    # image, so a stale entry after a workload edit is unreachable.
    key = None
    if trace_cache.enabled():
        program = workload.build(iters=iters, profile=profile)
        key = trace_cache.cache_key(name, max_steps, iters, skip, profile, program)
        t0 = time.perf_counter()
        w0 = time.time()
        cached = trace_cache.load(name, key)
        if cached is not None:
            if gp is not None:
                profile_from_records(cached, gp)
            if session is not None:
                session.note_cache_hit(name, len(cached), time.perf_counter() - t0)
            if tracer is not None:
                tracer.record(
                    f"cache.hit.{name}", category="cache",
                    start=w0, end=time.time(), records=len(cached),
                )
            return cached
        if tracer is not None:
            tracer.mark(f"cache.miss.{name}", category="cache")
    watchdog = (
        Watchdog(max_seconds=context.wall_timeout, label=f"collect[{name}]")
        if context.wall_timeout is not None
        else None
    )
    t0 = time.perf_counter()
    w0 = time.time()
    trace = Trace.from_records(
        workload.trace(max_steps=max_steps, iters=iters, skip=skip, profile=profile, watchdog=watchdog)
    )
    seconds = time.perf_counter() - t0
    if session is not None:
        session.note_collection(name, len(trace), seconds, dispatch_mode=default_dispatch())
    if tracer is not None:
        tracer.record(
            f"emulate.{name}", category="emulate",
            start=w0, end=time.time(), records=len(trace),
        )
    if gp is not None:
        profile_from_records(trace, gp)
    if key is not None:
        trace_cache.store(name, key, trace)
    return trace


class _TraceLayer:
    """The in-memory trace layer beneath :func:`collect_trace`.

    Keyed by ``(name, iters, skip, profile)``; each key keeps every
    trace it has served, by requested length, and at most *maxsize*
    keys stay held (least recently used evicted first).

    * An exact repeat returns the same trace, with no side effects.
    * A shorter request is served as the prefix of a held trace with at
      least that many records, sharing its columns: emulation is
      deterministic, so the first *M* records of a longer collection are
      the *M*-record collection.
      Like a persistent-cache hit it counts the prefix into an active
      guest profile, but it moves no cache or session counter.  A held
      trace with fewer records than requested (the guest halted) is
      never used.
    * Anything else goes to :func:`_fetch`: the persistent cache, else
      emulation.
    """

    def __init__(self, maxsize: int) -> None:
        self.maxsize = maxsize
        self._held: OrderedDict[tuple, dict[int, Trace]] = OrderedDict()

    def __call__(
        self, name: str, max_steps: int, iters: int | None, skip: int | None, profile: str
    ) -> Trace:
        key = (name, iters, skip, profile)
        held = self._held.get(key, {})
        trace = held.get(max_steps)
        if trace is None:
            longer = next((t for t in held.values() if len(t) >= max_steps), None)
            if longer is None:
                trace = _fetch(name, max_steps, iters, skip, profile)
            else:
                trace = longer[:max_steps]
                gp = current().collector
                if gp is not None:
                    profile_from_records(trace, gp)
            held[max_steps] = trace
        self._held[key] = held
        self._held.move_to_end(key)
        if len(self._held) > self.maxsize:
            self._held.popitem(last=False)
        return trace

    def cache_clear(self) -> None:
        """Drop every held trace."""
        self._held.clear()


_collect = _TraceLayer(maxsize=32)


def collect_trace(
    name: str,
    max_steps: int = DEFAULT_INSTRUCTIONS,
    iters: int | None = None,
    skip: int | None = None,
    profile: str = "ref",
) -> Trace:
    """Steady-state dynamic trace of benchmark *name* (cached).

    *profile* selects the input footprint (test/train/ref, the SPEC
    input-set analogue).  A registered budget override (graceful
    degradation) caps *max_steps*.
    """
    context = current()
    cap = context.budget_overrides.get(name)
    if cap is not None and max_steps > cap:
        max_steps = cap
    if context.session is not None:
        # Keep the benchmark context current even when the trace is a
        # cache hit, so subsequent simulate() runs attribute correctly.
        context.session.current_benchmark = name
    gp = context.collector
    if gp is not None:
        # Same for the guest profiler: the trace's retirements and the
        # cycles of the simulate() that follows land in this benchmark's
        # bucket, even when the trace itself is an in-memory cache hit.
        gp.begin_benchmark(name)
    return _collect(name, max_steps, iters, skip, profile)


@dataclass(frozen=True)
class FailureRecord:
    """One benchmark (or experiment) failure captured during a sweep."""

    benchmark: str
    stage: str                       # "collect" or the experiment name
    error: str                       # exception class name
    message: str
    retried: bool = False
    degraded_steps: int | None = None

    def describe(self) -> str:
        note = ""
        if self.degraded_steps is not None:
            note = f" (degraded to {self.degraded_steps} instructions and continued)"
        elif self.retried:
            note = " (retry at reduced budget also failed)"
        return f"{self.benchmark}: {self.stage} failed with {self.error}: {self.message}{note}"


def collect_trace_resilient(
    name: str,
    max_steps: int = DEFAULT_INSTRUCTIONS,
    iters: int | None = None,
    skip: int | None = None,
    profile: str = "ref",
    retry_divisor: int = 4,
    min_retry_steps: int = 1_000,
) -> tuple[Trace | None, FailureRecord | None]:
    """Collect a trace, degrading gracefully instead of raising.

    Returns ``(trace, failure)``:

    * ``(trace, None)`` — clean collection;
    * ``(trace, record)`` — first attempt failed, but one retry at
      ``max_steps // retry_divisor`` succeeded; the reduced budget is
      registered as this benchmark's override and *record* describes
      the degradation;
    * ``(None, record)`` — both attempts failed; the benchmark should
      be dropped from the sweep.
    """
    try:
        return collect_trace(name, max_steps, iters, skip, profile), None
    except Exception as exc:
        first = exc
    reduced = max(min_retry_steps, max_steps // retry_divisor)
    record = FailureRecord(
        benchmark=name, stage="collect", error=type(first).__name__,
        message=str(first), retried=True,
    )
    if reduced < max_steps:
        try:
            trace = collect_trace(name, reduced, iters, skip, profile)
        except Exception:
            return None, record
        set_budget_override(name, reduced)
        return trace, FailureRecord(
            benchmark=name, stage="collect", error=type(first).__name__,
            message=str(first), retried=True, degraded_steps=reduced,
        )
    return None, record


def render_failure_report(failures, degraded=()) -> str:
    """Human-readable partial-results report for a keep-going sweep."""
    lines = ["=== Sweep failure report ==="]
    if not failures and not degraded:
        lines.append("no failures: all benchmarks completed at full budget")
    for record in failures:
        lines.append(f"FAILED   {record.describe()}")
    for record in degraded:
        lines.append(f"DEGRADED {record.describe()}")
    return "\n".join(lines)


def sweep_configs(
    name: str,
    configs: list[MachineConfig],
    max_steps: int = DEFAULT_INSTRUCTIONS,
    warmup: int = DEFAULT_WARMUP,
) -> list[SimStats]:
    """Run every configuration over the same trace of one benchmark."""
    return simulate_configs(configs, collect_trace(name, max_steps + warmup), warmup=warmup)


def clear_trace_cache() -> None:
    """Drop cached traces and degradation state (tests, memory).

    Clears the in-memory layers only; the persistent on-disk cache is
    content-addressed and needs no invalidation (its hit/miss counters
    are reset so tests observe a clean slate).
    """
    _collect.cache_clear()
    current().budget_overrides.clear()
    trace_cache.reset_stats()
