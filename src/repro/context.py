"""The run context: the state one run sets and every layer reads.

A run turns on at most one observability session, one span tracer and
one guest-profile collector, and sets the runner's collection budgets
and the trace cache's directory and switch.  One :class:`RunContext`
holds all of it and :func:`current` returns the active one, so
instrumentation deep in the stack (block compilation, ``simulate()``,
trace collection) reads it without a handle threaded through every
experiment signature.  A recorder that is off is ``None``: its hooks
cost one attribute check and the uninstrumented loops run unchanged.

The context is also the one home of the process's work counters
(:attr:`RunContext.counters`: trace-cache traffic, the block engine's,
emulated collections) and of the last sweep's report.  The counters are
cumulative for the life of the context; :meth:`RunContext.drain` takes
what the process recorded since its last drain — finished spans,
guest-profile buckets and the counters' growth — as one delta, and
:meth:`RunContext.merge` folds a delta into another context.

The CLI builds one context per run and activates it (:func:`activate`).
A spawned sweep worker starts from ``import repro``, not from a copy
of the parent's memory, so the supervised pool hands every worker,
at first spawn and at every respawn, the same picklable
:class:`Snapshot` of the parent's context, and the worker activates
:meth:`Snapshot.restore`.  Each reply carries the worker's drained
delta, which the orchestrator merges.  The tier switches
(``REPRO_DISPATCH``, ``REPRO_TIMING``) and ``REPRO_TRACE_CACHE`` need
no slot: spawned workers inherit the parent's environment.

The module imports nothing from the package at import time, so the
emulator and timing layers read it without an import cycle.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path


@dataclass
class RunContext:
    """Everything a run sets that deep layers read."""

    #: :class:`~repro.obs.session.ObsSession`, or ``None`` (off).
    session: object = None
    #: :class:`~repro.obs.tracing.Tracer`, or ``None`` (off).
    tracer: object = None
    #: :class:`~repro.obs.guestprof.GuestProfileCollector`, or ``None`` (off).
    collector: object = None
    #: Wall-clock budget (seconds) of every trace collection, or ``None``.
    wall_timeout: float | None = None
    #: Per-benchmark instruction-budget caps registered by graceful
    #: degradation (a collection that only succeeded at a reduced budget).
    budget_overrides: dict[str, int] = field(default_factory=dict)
    #: Explicit trace-cache directory and switch; ``None`` falls back to
    #: the ``REPRO_TRACE_CACHE`` environment variable.
    cache_dir: Path | None = None
    cache_enabled: bool | None = None
    #: Cumulative work counters by dotted name (``trace_cache.hits``,
    #: ``compiler.blocks_compiled``, ``emulate.instructions``, ...).
    counters: dict[str, float] = field(default_factory=dict)
    #: The last sweep's :class:`~repro.experiments.supervisor.SupervisorReport`.
    sweep_report: object = None
    #: The counters as of the last :meth:`drain`.
    _drained: dict[str, float] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    def count(self, name: str, n: float = 1) -> None:
        """Add *n* to counter *name* (a counter exists once it moved)."""
        if n:
            self.counters[name] = self.counters.get(name, 0) + n

    def drain(self) -> dict:
        """What this process recorded since its last drain, as one delta:
        finished spans, guest-profile buckets and the counters' growth.
        The spans and buckets leave with it; the counters stay
        cumulative."""
        delta = self.tracer.drain() if self.tracer is not None else {}
        if self.collector is not None and self.collector.benchmarks:
            delta["guestprof"] = self.collector.drain()
        drained = self._drained
        growth = {
            name: value - drained.get(name, 0)
            for name, value in self.counters.items()
            if value != drained.get(name, 0)
        }
        if growth:
            delta["counters"] = growth
            self._drained = dict(self.counters)
        return delta

    def merge(self, delta: dict | None) -> None:
        """Fold another process's :meth:`drain` into this context."""
        if not delta:
            return
        if self.tracer is not None:
            self.tracer.ingest(delta)
        if self.collector is not None:
            self.collector.ingest(delta.get("guestprof"))
        for name, growth in delta.get("counters", {}).items():
            self.count(name, growth)

    def snapshot(self) -> Snapshot:
        """The picklable state a spawned worker inherits."""
        return Snapshot(
            wall_timeout=self.wall_timeout,
            budget_overrides=dict(self.budget_overrides),
            cache_dir=self.cache_dir,
            cache_enabled=self.cache_enabled,
            guest_profile=self.collector is not None,
            tracing=self.tracer is not None,
        )


@dataclass(frozen=True)
class Snapshot:
    """A parent's context as a worker inherits it: the knobs by value,
    the guest profiler and the tracer as switches.  The session stays in
    the parent, which records the cells the workers run."""

    wall_timeout: float | None
    budget_overrides: dict[str, int]
    cache_dir: Path | None
    cache_enabled: bool | None
    guest_profile: bool
    tracing: bool

    def restore(self) -> RunContext:
        """A worker's context: the parent's knobs, plus a collector and
        a tracer of its own and counters from zero, drained into every
        reply for the orchestrator to merge."""
        from repro.obs.guestprof import GuestProfileCollector
        from repro.obs.tracing import Tracer, worker_process_label

        return RunContext(
            tracer=Tracer(process=worker_process_label()) if self.tracing else None,
            collector=GuestProfileCollector() if self.guest_profile else None,
            wall_timeout=self.wall_timeout,
            budget_overrides=dict(self.budget_overrides),
            cache_dir=self.cache_dir,
            cache_enabled=self.cache_enabled,
        )


_current = RunContext()


def current() -> RunContext:
    """The active run context."""
    return _current


def activate(context: RunContext) -> RunContext:
    """Make *context* the active one; returns it."""
    global _current
    _current = context
    return context


def reset(**fields) -> RunContext:
    """Activate a fresh context built from *fields* (everything else off)."""
    return activate(RunContext(**fields))


__all__ = ["RunContext", "Snapshot", "activate", "current", "reset"]
