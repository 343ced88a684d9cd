"""Per-run observability session.

One :class:`ObsSession` ties the metrics registry and the cycle-event
trace to a single run of the CLI, and collects the per-run records
behind the ``BENCH_<run>.json`` perf snapshot.  It lives in the run
context (:mod:`repro.context`), so instrumentation points deep in the
stack — ``simulate()`` — report without a handle threaded through
every experiment signature; when no session is active every hook is a
single ``None`` check, keeping the uninstrumented hot path unchanged.
The session records only what it alone sees: each timing run (the
``sim.*`` metrics) and the cycle-event ring.  Collections are counted
by the run context (:attr:`repro.context.RunContext.counters`), which
also gathers a sweep's workers, and the dump renders them
(:data:`CONTEXT_METRICS`).  Where the time went is the span tracer's job
(:mod:`repro.obs.tracing`, ``--profile``), and what ran — tiers, trace
cache, supervision — is the run manifest's.  The one time the session
keeps is each run's wall seconds, which the snapshot's
``instructions_per_second`` divides by.
"""

from __future__ import annotations

import sys
import time
from dataclasses import dataclass

from repro.context import current
from repro.obs.events import DEFAULT_CAPACITY, EventTrace
from repro.obs.registry import MetricsRegistry

#: Run-context counters the metrics dump renders, with their help text.
CONTEXT_METRICS = {
    "emulate.instructions": "emulated trace records",
    "emulate.collections": "trace collections",
    "trace_cache.records": "trace records served from cache",
}


@dataclass(frozen=True)
class RunRecord:
    """One timing-simulation run observed by the session."""

    benchmark: str
    config: str
    instructions: int
    ipc: float
    wall_seconds: float


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
        self._t0 = time.monotonic()
        self._last_beat = self._t0

    # ------------------------------------------------------------- hooks

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

    def record_run(self, stats, wall_seconds: float) -> None:
        """Called after one ``simulate()``; *stats* is a ``SimStats``."""
        benchmark = self.current_benchmark or "?"
        self.runs.append(
            RunRecord(
                benchmark=benchmark,
                config=stats.config_name,
                instructions=stats.instructions,
                ipc=stats.ipc,
                wall_seconds=wall_seconds,
            )
        )
        stats.publish(self.registry)
        self.registry.counter("sim.runs", help="timing simulations").inc()
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
        collections = current().counters.get("emulate.collections", 0)
        print(
            f"[obs] {elapsed:.1f}s elapsed — {collections} collections, "
            f"{len(self.runs)} simulations{f', last {last}' if last else ''}",
            file=self.stream,
            flush=True,
        )

    # ------------------------------------------------------------ exports

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
        for rec in out.values():
            rec["instructions_per_second"] = (
                rec["instructions"] / rec["wall_seconds"] if rec["wall_seconds"] > 0 else 0.0
            )
        return out

    def finalize_registry(self) -> MetricsRegistry:
        """Add the run context's collection counts and the session's
        event counts; return the registry."""
        counters = current().counters
        for name, help in CONTEXT_METRICS.items():
            if name in counters:
                self.registry.counter(name, help=help).inc(counters[name])
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
