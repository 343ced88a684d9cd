"""Per-run observability session.

One :class:`ObsSession` ties the metrics registry and the cycle-event
trace to a single run of the CLI, and collects the per-run records
behind the ``BENCH_<run>.json`` perf snapshot.  It lives in the run
context (:mod:`repro.context`), so instrumentation points deep in the
stack — ``simulate()``, trace collection — report without a handle
threaded through every experiment signature; when no session is active
every hook is a single ``None`` check, keeping the uninstrumented hot
path unchanged.  Where the time went is the span tracer's job
(:mod:`repro.obs.tracing`, ``--profile``).
"""

from __future__ import annotations

import sys
import time
from dataclasses import dataclass

from repro.context import current
from repro.obs.events import DEFAULT_CAPACITY, EventTrace
from repro.obs.registry import MetricsRegistry


@dataclass(frozen=True)
class RunRecord:
    """One timing-simulation run observed by the session."""

    benchmark: str
    config: str
    instructions: int
    cycles: int
    ipc: float
    wall_seconds: float
    #: Timing-loop implementation that produced the run ("fast" /
    #: "reference"); empty when the caller predates the fast path.
    timing_mode: str = ""
    #: Emulator interpreter that produced the run's trace ("blocks" /
    #: "reference"); empty when unknown (e.g. cache hit recorded
    #: before the dispatch mode was plumbed through).
    dispatch_mode: str = ""

    @property
    def instructions_per_second(self) -> float:
        return self.instructions / self.wall_seconds if self.wall_seconds > 0 else 0.0


class ObsSession:
    """Holds the observability state for one driver run."""

    def __init__(
        self,
        trace_events: bool = False,
        events_capacity: int | None = DEFAULT_CAPACITY,
        heartbeat_interval: float | None = None,
        stream=None,
    ) -> None:
        self.registry = MetricsRegistry()
        self.events = EventTrace(events_capacity) if trace_events else None
        self.heartbeat_interval = heartbeat_interval
        self.stream = stream if stream is not None else sys.stderr
        self.runs: list[RunRecord] = []
        self.current_benchmark: str | None = None
        self.collections = 0
        self.cache_hits = 0
        #: dispatch tier → accumulated {"instructions", "wall_seconds"}
        #: across this session's trace collections, so manifests can
        #: report per-tier emulation throughput, not just the aggregate.
        self.dispatch_tiers: dict[str, dict[str, float]] = {}
        self.supervisor: dict | None = None
        self._t0 = time.monotonic()
        self._last_beat = self._t0

    # ------------------------------------------------------------- hooks

    def note_collection(
        self, benchmark: str, records: int, seconds: float, dispatch_mode: str = ""
    ) -> None:
        """Called after one emulator trace collection."""
        self.current_benchmark = benchmark
        self.collections += 1
        self.registry.counter("emulate.instructions", help="emulated trace records").inc(records)
        self.registry.counter("emulate.collections", help="trace collections").inc()
        self.registry.timer("emulate.wall", help="emulator wall time").add(seconds)
        if dispatch_mode:
            tier = self.dispatch_tiers.setdefault(
                dispatch_mode, {"instructions": 0, "wall_seconds": 0.0}
            )
            tier["instructions"] += records
            tier["wall_seconds"] += seconds
            self.registry.counter(
                f"emulate.{dispatch_mode}.instructions",
                help=f"trace records emulated by the {dispatch_mode} tier",
            ).inc(records)
            self.registry.timer(
                f"emulate.{dispatch_mode}.wall",
                help=f"{dispatch_mode}-tier emulator wall time",
            ).add(seconds)
        self.heartbeat(f"collect.{benchmark}")

    def note_cache_hit(self, benchmark: str, records: int, seconds: float) -> None:
        """Called when a collection is served by the persistent cache."""
        self.current_benchmark = benchmark
        self.cache_hits += 1
        self.registry.counter("trace_cache.hits", help="persistent-cache hits").inc()
        self.registry.counter(
            "trace_cache.records", help="trace records served from cache"
        ).inc(records)
        self.registry.timer("trace_cache.load_wall", help="cache load wall time").add(seconds)
        self.heartbeat(f"cache.hit.{benchmark}")

    def note_sweep_progress(
        self, done: int, total: int, failed: int = 0, in_flight: int = 0
    ) -> None:
        """Called by the sweep orchestrator as cells complete.

        This is what makes ``--heartbeat`` useful during ``--jobs``
        sweeps: cells execute inside workers (where no session exists),
        so without an orchestrator-level hook a parallel sweep was
        silent until the end.
        """
        msg = f"sweep {done}/{total} cells"
        if in_flight:
            msg += f", {in_flight} in flight"
        if failed:
            msg += f", {failed} failed"
        self.heartbeat(msg)

    def note_supervisor(self, report) -> None:
        """Called after a supervised sweep finishes; *report* is a
        :class:`~repro.experiments.supervisor.SupervisorReport` (its
        counters were already published into the registry — this keeps
        the structured form for the bench manifest)."""
        self.supervisor = report.to_dict()
        self.heartbeat("sweep.supervised")

    def record_run(
        self, stats, wall_seconds: float, timing_mode: str = "", dispatch_mode: str = ""
    ) -> None:
        """Called after one ``simulate()``; *stats* is a ``SimStats``."""
        benchmark = self.current_benchmark or "?"
        self.runs.append(
            RunRecord(
                benchmark=benchmark,
                config=stats.config_name,
                instructions=stats.instructions,
                cycles=stats.cycles,
                ipc=stats.ipc,
                wall_seconds=wall_seconds,
                timing_mode=timing_mode,
                dispatch_mode=dispatch_mode,
            )
        )
        stats.publish(self.registry)
        self.registry.counter("sim.runs", help="timing simulations").inc()
        self.registry.timer("sim.wall", help="simulator wall time").add(wall_seconds)
        self.registry.histogram(
            "sim.run_instructions", help="instructions per simulation run"
        ).observe(stats.instructions)
        self.heartbeat(f"simulate.{benchmark}/{stats.config_name}")

    def heartbeat(self, last: str = "") -> None:
        """Print a progress line if the heartbeat interval elapsed."""
        if self.heartbeat_interval is None:
            return
        now = time.monotonic()
        if now - self._last_beat < self.heartbeat_interval:
            return
        self._last_beat = now
        elapsed = now - self._t0
        print(
            f"[obs] {elapsed:.1f}s elapsed — {self.collections} collections, "
            f"{len(self.runs)} simulations{f', last {last}' if last else ''}",
            file=self.stream,
            flush=True,
        )

    # ------------------------------------------------------------ exports

    @property
    def elapsed(self) -> float:
        return time.monotonic() - self._t0

    def dispatch_tier_stats(self) -> dict[str, dict]:
        """Per-dispatch-tier emulation throughput (manifest block)."""
        out: dict[str, dict] = {}
        for tier in sorted(self.dispatch_tiers):
            rec = self.dispatch_tiers[tier]
            wall = rec["wall_seconds"]
            out[tier] = {
                "instructions": int(rec["instructions"]),
                "wall_seconds": wall,
                "instructions_per_second": rec["instructions"] / wall if wall > 0 else 0.0,
            }
        return out

    def bench_records(self) -> dict[str, dict]:
        """Per-benchmark perf records for :func:`write_bench_snapshot`."""
        out: dict[str, dict] = {}
        for run in self.runs:
            rec = out.setdefault(
                run.benchmark,
                {"ipc": {}, "wall_seconds": 0.0, "instructions": 0, "runs": 0},
            )
            rec["ipc"][run.config] = run.ipc
            rec["wall_seconds"] += run.wall_seconds
            rec["instructions"] += run.instructions
            rec["runs"] += 1
        for name, rec in out.items():
            rec["instructions_per_second"] = (
                rec["instructions"] / rec["wall_seconds"] if rec["wall_seconds"] > 0 else 0.0
            )
            modes = {r.timing_mode for r in self.runs if r.benchmark == name and r.timing_mode}
            if modes:
                rec["timing_mode"] = modes.pop() if len(modes) == 1 else "mixed"
            dmodes = {
                r.dispatch_mode for r in self.runs if r.benchmark == name and r.dispatch_mode
            }
            if dmodes:
                rec["dispatch_mode"] = dmodes.pop() if len(dmodes) == 1 else "mixed"
        return out

    def finalize_registry(self) -> MetricsRegistry:
        """Add the session's own gauges and event counts; return the registry."""
        self.registry.gauge("obs.elapsed_seconds", help="session wall time").set(self.elapsed)
        if self.events is not None:
            self.registry.counter("obs.events.emitted", help="cycle events emitted").inc(
                self.events.emitted
            )
            dropped = self.events.dropped
            self.registry.counter("obs.events.dropped", help="events evicted by ring bound").inc(
                dropped
            )
            if dropped:
                print(
                    f"[obs] warning: event ring dropped {dropped} of "
                    f"{self.events.emitted} events (capacity "
                    f"{self.events.capacity}); exported traces cover only "
                    f"the most recent window — raise the capacity for a "
                    f"complete trace",
                    file=self.stream,
                    flush=True,
                )
        return self.registry


def start_session(**kwargs) -> ObsSession:
    """Activate a new session in the run context (replacing any existing one)."""
    session = current().session = ObsSession(**kwargs)
    return session


def end_session() -> ObsSession | None:
    """Deactivate and return the current session."""
    context = current()
    session, context.session = context.session, None
    return session


def active_session() -> ObsSession | None:
    """The current session, or ``None`` when observability is off."""
    return current().session


__all__ = ["ObsSession", "RunRecord", "active_session", "end_session", "start_session"]
