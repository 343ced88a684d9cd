"""Parallel trace collection: fan work out to worker processes.

Trace collection is a pure function of its inputs, so the CLI's
``--jobs N`` collects every target benchmark's trace in a worker of the
supervised pool of :mod:`repro.experiments.supervisor` and preloads it
into this process's runner cache.  The (benchmark × configuration) grid
itself runs under :func:`repro.experiments.supervisor.run_sweep`.

Design constraints honoured here:

* **Explicit state inheritance** — the runner's wall-clock timeout and
  per-benchmark budget overrides, the trace cache's configuration and
  the guest profiler and tracer switches live in the run context
  (:mod:`repro.context`), which a ``spawn``-ed worker would silently
  lose.  The supervised pool hands every worker (and every *respawned*
  worker) one snapshot of it, so a ``--timeout 60 --jobs 8`` run
  enforces the same budget in all eight processes.
* **Failure isolation** — a crashing workload inside a worker becomes
  the same :class:`FailureRecord` a sequential ``--keep-going`` run
  would produce; one bad benchmark never takes down the pool.  A
  worker that *dies* (segfault, OOM kill) surfaces the same way — the
  supervisor reaps it and reports a ``WorkerCrash`` record instead of
  hanging the sweep, which the bare ``multiprocessing.Pool.map`` this
  module used to wrap would do.
* **Interruption safety** — Ctrl-C used to be able to orphan or hang
  the pool: the terminal delivers SIGINT to the whole process group,
  workers died mid-task, and ``map`` blocked forever on results that
  would never arrive.  Supervised workers ignore SIGINT; the parent
  turns it into a drain that terminates every worker before raising
  ``KeyboardInterrupt``.
* **Cheap transport** — traces travel between processes as the packed
  numpy arrays of :mod:`repro.emulator.tracefile` (a few MB), not as
  pickled ``TraceRecord`` lists (hundreds of MB); the parent unpacks
  them to a columnar :class:`~repro.emulator.trace.Trace` and hands it
  to :func:`repro.experiments.runner.preload_trace`.
"""

from __future__ import annotations

import multiprocessing
import time
from dataclasses import dataclass

from repro.context import current
from repro.emulator.tracefile import pack_trace, unpack_trace
from repro.experiments import runner, trace_cache
from repro.experiments.runner import FailureRecord
from repro.experiments.supervisor import PoolTask, SupervisedPool, SupervisorPolicy
from repro.harness.errors import TraceCorruption

#: Collection keeps the pre-supervisor behaviour: no automatic retries
#: (``run_sweep`` is the retrying, journaled orchestrator).
_PASSTHROUGH_POLICY = SupervisorPolicy(max_cell_retries=0, backoff=0.0)


def default_jobs() -> int:
    """A sane worker count: physical parallelism, small floor."""
    return max(1, multiprocessing.cpu_count() - 1)


@dataclass(frozen=True)
class CollectResult:
    """One benchmark's collection outcome, shipped parent-ward."""

    name: str
    max_steps: int                    # budget actually used (post-degradation)
    arrays: dict | None               # packed trace, None on failure
    failure: FailureRecord | None
    degraded_steps: int | None
    seconds: float
    cache_hits: int
    cache_misses: int


def _collect_worker(task) -> CollectResult:
    name, max_steps, iters, skip, profile = task
    trace_cache.reset_stats()
    t0 = time.perf_counter()
    trace, record = runner.collect_trace_resilient(
        name, max_steps, iters=iters, skip=skip, profile=profile
    )
    seconds = time.perf_counter() - t0
    stats = trace_cache.stats()
    degraded = record.degraded_steps if record is not None else None
    used = degraded if degraded is not None else max_steps
    return CollectResult(
        name=name,
        max_steps=used,
        arrays=pack_trace(trace) if trace is not None else None,
        failure=record,
        degraded_steps=degraded,
        seconds=seconds,
        cache_hits=stats["hits"],
        cache_misses=stats["misses"],
    )


def collect_parallel(
    names,
    max_steps: int,
    jobs: int,
    iters: int | None = None,
    skip: int | None = None,
    profile: str = "ref",
):
    """Collect traces for *names* across *jobs* worker processes.

    Every successful trace is preloaded into this process's runner
    cache, so the experiments that follow never re-emulate; worker
    cache hit/miss counts fold into the parent's counters (and thus the
    run manifest).  Returns ``(surviving, failures, degraded)`` with
    the same semantics as the sequential ``--keep-going`` pre-pass.
    """
    names = list(names)
    session = current().session
    tasks = [
        PoolTask(
            id=name,
            fn="repro.experiments.parallel:_collect_worker",
            payload=(name, max_steps, iters, skip, profile),
            label=f"collect/{name}",
        )
        for name in names
    ]

    # Orchestrator-level heartbeats: collection happens inside workers
    # (no session there), so without this hook a --jobs run was silent
    # until the pool drained — --heartbeat now reports cells done and
    # in flight for parallel runs too.
    done_count = 0
    failed_count = 0
    inflight: set[str] = set()

    def on_event(kind, task, info) -> None:
        nonlocal done_count, failed_count
        if kind == "dispatch":
            inflight.add(task.id)
        elif kind == "done":
            inflight.discard(task.id)
            done_count += 1
        elif kind == "failed":
            inflight.discard(task.id)
            failed_count += 1
        else:
            return
        if kind != "dispatch":
            session.note_sweep_progress(
                done=done_count, total=len(tasks),
                failed=failed_count, in_flight=len(inflight),
            )

    with SupervisedPool(jobs, policy=_PASSTHROUGH_POLICY) as pool:
        outcomes = pool.run(tasks, on_event=on_event if session is not None else None)

    surviving: list[str] = []
    failures: list[FailureRecord] = []
    degraded: list[FailureRecord] = []
    for name in names:
        outcome = outcomes.get(name)
        if outcome is None:  # pragma: no cover - drain interrupts before here
            continue
        if not outcome.ok:
            failures.append(
                FailureRecord(
                    benchmark=name, stage="collect",
                    error=outcome.error, message=outcome.message,
                )
            )
            continue
        result = outcome.value
        trace_cache.add_stats(result.cache_hits, result.cache_misses)
        if result.arrays is None:
            failures.append(result.failure)
            continue
        try:
            trace = unpack_trace(result.arrays)
        except TraceCorruption as exc:  # pragma: no cover - transport bug guard
            failures.append(
                FailureRecord(
                    benchmark=result.name, stage="collect",
                    error=type(exc).__name__, message=str(exc),
                )
            )
            continue
        if result.degraded_steps is not None:
            runner.set_budget_override(result.name, result.degraded_steps)
            degraded.append(result.failure)
        runner.preload_trace(
            result.name, result.max_steps, iters, skip, profile, trace
        )
        if session is not None:
            if result.cache_hits and not result.cache_misses:
                session.note_cache_hit(result.name, len(trace), result.seconds)
            else:
                # Workers inherit the parent's REPRO_DISPATCH, so the
                # parent's default names the tier that emulated the trace.
                from repro.emulator.machine import default_dispatch

                session.note_collection(
                    result.name, len(trace), result.seconds,
                    dispatch_mode=default_dispatch(),
                )
        surviving.append(result.name)
    return surviving, failures, degraded


__all__ = [
    "CollectResult",
    "collect_parallel",
    "default_jobs",
]
