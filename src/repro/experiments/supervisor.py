"""Supervised, resumable sweep orchestration.

The ``sweep`` experiment runs its (benchmark × config) grid on this
module's supervised worker pool (``--jobs N`` sizes it), with a
crash-safe journal (:mod:`repro.experiments.journal`) on top, so a
sweep tolerates:

* **dead workers** — each worker runs over its own pipe with a
  heartbeat; a SIGKILLed or hung worker is detected, its cell retried
  on a respawned worker (which inherits the same snapshot of the
  parent's run context), and the respawn counted in the run
  manifest's ``supervisor`` block;
* **poison cells** — a cell that keeps failing is retried with
  exponential backoff plus seeded jitter and, past the retry budget,
  quarantined as a :class:`~repro.experiments.runner.FailureRecord`
  instead of hanging the sweep;
* **corrupt transport** — every worker result travels as a
  SHA-256-checksummed pickle; a corrupted payload is rejected and the
  cell retried, never silently merged;
* **orchestrator death** — :func:`run_sweep` journals every cell
  transition atomically, so ``--resume <journal>`` replays completed
  cells from the result store and re-dispatches only the remainder,
  with merged stats bit-identical to an uninterrupted run;
* **Ctrl-C / SIGTERM** — a drain flag stops dispatch, terminates the
  workers, flushes the journal, and re-raises, so an interrupted
  campaign is one ``--resume`` away from continuing.

Chaos testing drives all of it: a
:class:`~repro.harness.faults.ProcessFaultPlan` (``$REPRO_CHAOS``)
injects seeded worker kills/stalls/corruptions, and
``$REPRO_CHAOS_ORCH_KILL`` SIGKILLs the orchestrator itself after N
completed cells — ``scripts/chaos_sweep.py`` asserts the byte-identical
recovery invariant end to end.
"""

from __future__ import annotations

import hashlib
import importlib
import os
import pickle
import random
import signal
import threading
import time
from dataclasses import dataclass, field
from multiprocessing import connection, get_context
from multiprocessing.sharedctypes import RawValue
from pathlib import Path

from repro import context
from repro.obs import tracing
from repro.obs.tracing import traced
from repro.experiments.journal import (
    DONE,
    FAILED,
    PENDING,
    QUARANTINED,
    CellRecord,
    SweepJournal,
    cell_key,
)
from repro.harness.faults import ProcessFaultPlan
from repro.isa.assembler import program_digest
from repro.timing.stats import SimStats

#: ``spawn`` everywhere: identical worker lifecycle on every platform,
#: and no accidental fork-time inheritance masking a missing initarg.
_MP_CONTEXT = "spawn"

#: Orchestrator-kill chaos knob: SIGKILL this process after N cells
#: complete (used by ``scripts/chaos_sweep.py`` to test kill-resume).
ORCH_KILL_ENV_VAR = "REPRO_CHAOS_ORCH_KILL"

#: Supervisor poll tick (seconds) while waiting on busy workers.
_TICK = 0.05


# --------------------------------------------------------------------------
# Policy and accounting
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class SupervisorPolicy:
    """Supervision knobs for one sweep.

    ``max_cell_retries`` is the number of *extra* attempts a cell gets
    beyond its first; past that it is quarantined.  Retry *n* is
    delayed ``backoff * 2**(n-1)`` seconds plus seeded jitter (a
    fraction of the delay), so a transiently sick host is not hammered
    and simultaneous retries decorrelate deterministically.
    """

    max_cell_retries: int = 2
    backoff: float = 0.25
    backoff_jitter: float = 0.25        # fraction of the delay, seeded
    cell_timeout: float | None = None   # wall seconds before a stalled cell is killed
    heartbeat_interval: float = 0.5     # worker heartbeat period
    heartbeat_timeout: float | None = 60.0  # stale-heartbeat kill threshold
    seed: int = 2003
    #: A done cell is flagged as a straggler when its wall time exceeds
    #: this multiple of the sweep's median cell wall time (<= 0: off).
    straggler_factor: float = 3.0

    def retry_delay(self, task_id: str, attempt: int) -> float:
        """Backoff before re-dispatching *task_id* after failed *attempt*."""
        base = self.backoff * (2 ** max(attempt - 1, 0))
        if base <= 0:
            return 0.0
        jitter = random.Random(f"{self.seed}|{task_id}|{attempt}|backoff").uniform(
            0.0, self.backoff_jitter * base
        )
        return base + jitter


@dataclass
class SupervisorReport:
    """Counters describing how much supervision one sweep needed."""

    cells_total: int = 0
    cells_executed: int = 0
    resume_hits: int = 0
    respawns: int = 0
    retries: int = 0
    quarantined: int = 0
    corrupt_results: int = 0
    drained: bool = False
    #: Done cells whose wall time exceeded ``straggler_factor`` × the
    #: sweep median (each: cell, wall_seconds, median_seconds, factor).
    stragglers: list = field(default_factory=list)
    #: Cells that needed more than one attempt (each: cell, attempts).
    retry_storms: list = field(default_factory=list)

    @property
    def resume_hit_rate(self) -> float:
        return self.resume_hits / self.cells_total if self.cells_total else 0.0

    def to_dict(self) -> dict:
        return {
            "cells_total": self.cells_total,
            "cells_executed": self.cells_executed,
            "resume_hits": self.resume_hits,
            "resume_hit_rate": self.resume_hit_rate,
            "respawns": self.respawns,
            "retries": self.retries,
            "quarantined": self.quarantined,
            "corrupt_results": self.corrupt_results,
            "drained": self.drained,
            "stragglers": list(self.stragglers),
            "retry_storms": list(self.retry_storms),
        }

    def render(self) -> str:
        extras = ""
        if self.stragglers:
            extras += f", {len(self.stragglers)} straggler(s)"
        if self.retry_storms:
            extras += f", {len(self.retry_storms)} retry-storm cell(s)"
        return (
            f"supervisor: {self.cells_executed}/{self.cells_total} cells executed, "
            f"{self.resume_hits} resumed ({self.resume_hit_rate:.0%} hit rate), "
            f"{self.respawns} respawns, {self.retries} retries, "
            f"{self.quarantined} quarantined, {self.corrupt_results} corrupt results"
            + extras
            + (" [drained on signal]" if self.drained else "")
        )


def last_report() -> SupervisorReport | None:
    """The run context's last completed (or drained) sweep report."""
    return context.current().sweep_report


def detect_stragglers(
    cell_wall: dict[str, float], labels: dict[str, str], factor: float
) -> list[dict]:
    """Flag cells whose wall time exceeded *factor* × the sweep median.

    Returns manifest-ready records (worst first).  Needs at least three
    timed cells — a median of one or two walls flags nothing but noise.
    """
    if factor is None or factor <= 0 or len(cell_wall) < 3:
        return []
    walls = sorted(cell_wall.values())
    median = walls[len(walls) // 2]
    if median <= 0:
        return []
    out = [
        {
            "cell": labels.get(key, key),
            "wall_seconds": round(wall, 3),
            "median_seconds": round(median, 3),
            "factor": round(wall / median, 2),
        }
        for key, wall in cell_wall.items()
        if wall > factor * median
    ]
    out.sort(key=lambda rec: -rec["factor"])
    return out


# --------------------------------------------------------------------------
# Worker process
# --------------------------------------------------------------------------

def _resolve(fn_name: str):
    """Import a ``module:function`` task executor inside a worker."""
    module, _, attr = fn_name.partition(":")
    return getattr(importlib.import_module(module), attr)


def _heartbeat_loop(hb, interval: float) -> None:
    while True:
        hb.value = time.monotonic()
        time.sleep(interval)


def _worker_main(conn, hb, snapshot, fault_plan, heartbeat_interval, spawned_at) -> None:
    """Worker loop: receive a task, execute it, send a checksummed reply.

    The parent owns interruption (it terminates workers on drain), so
    SIGINT — which a terminal delivers to the whole process group — is
    ignored here; a worker must never die mid-``send`` with a torn
    message because the user pressed Ctrl-C.

    The worker runs under the run context its parent's *snapshot*
    restores (:class:`repro.context.Snapshot`).  When the parent traces,
    the worker's context holds a tracer of its own: each task adopts
    the span context the orchestrator sent and executes under a
    ``worker.execute`` span (instrumentation points deeper in the stack
    — trace-cache hits, collection, simulation — nest under it).  Each
    reply's last slot carries the context's drained delta (finished
    spans, guest-profile buckets, counter growth) for the orchestrator
    to merge.  The first task's attempt span also holds a
    ``worker.start`` span, from *spawned_at* (the orchestrator's clock
    at spawn) to the first receive: the worker's start-up, which the
    attempt waited for.  A SIGKILLed worker simply never ships its
    last delta — the orchestrator's attempt span records the loss.
    """
    try:
        signal.signal(signal.SIGINT, signal.SIG_IGN)
    except ValueError:  # pragma: no cover - non-main-thread embedding
        pass
    run_context = context.activate(snapshot.restore())
    tracer = run_context.tracer
    threading.Thread(
        target=_heartbeat_loop, args=(hb, heartbeat_interval), daemon=True
    ).start()
    executors: dict[str, object] = {}
    while True:
        try:
            msg = conn.recv()
        except (EOFError, OSError):
            return
        received = time.time()
        if msg[0] == "exit":
            return
        _, task_id, attempt, fn_name, payload, ctx = msg
        fault = fault_plan.decide(task_id, attempt) if fault_plan is not None else None
        if fault == "kill":
            os.kill(os.getpid(), signal.SIGKILL)
        if fault == "stall":
            time.sleep(fault_plan.stall_seconds)
        task_span = None
        if tracer is not None:
            tracer.adopt(ctx[:2] if ctx is not None else None)
            if spawned_at is not None:
                tracer.record("worker.start", category="worker", start=spawned_at, end=received)
                spawned_at = None
            label = ctx[2] if ctx is not None and len(ctx) > 2 else task_id
            task_span = tracer.begin(
                label, category="worker.execute", attempt=attempt, pid=os.getpid()
            )
            tracer.default_parent = task_span.span_id
        try:
            fn = executors.get(fn_name)
            if fn is None:
                fn = executors[fn_name] = _resolve(fn_name)
            value = fn(payload)
        except Exception as exc:
            if task_span is not None:
                tracer.finish(task_span, status=tracing.ERROR, error=type(exc).__name__)
            reply = ("error", task_id, attempt, type(exc).__name__, str(exc))
        else:
            if task_span is not None:
                tracer.finish(task_span)
            blob = pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL)
            digest = hashlib.sha256(blob).hexdigest()
            if fault == "corrupt":
                offset, mask = fault_plan.corrupt_byte(task_id, attempt, len(blob))
                corrupted = bytearray(blob)
                corrupted[offset] ^= mask
                blob = bytes(corrupted)
            reply = ("ok", task_id, attempt, blob, digest)
        try:
            conn.send((*reply, run_context.drain()))
        except (BrokenPipeError, OSError):
            # The parent is gone (e.g. the orchestrator itself was
            # SIGKILLed under chaos); exit quietly — the journal makes
            # this work recoverable, a traceback would just be noise.
            return


# --------------------------------------------------------------------------
# The supervised pool
# --------------------------------------------------------------------------

@dataclass
class PoolTask:
    """One unit of work for :class:`SupervisedPool`."""

    id: str
    fn: str                 # "module:function" resolved inside the worker
    payload: tuple
    max_retries: int = 0
    #: Human-readable span name ("li/bitslice4"); falls back to ``id``.
    label: str = ""
    #: How many ``cell_timeout``s the task may run before it counts as
    #: stalled (a sweep task runs several cells).
    timeouts: int = 1


@dataclass
class TaskOutcome:
    """Final fate of one task after supervision."""

    task_id: str
    value: object = None
    error: str | None = None
    message: str = ""
    attempts: int = 0
    quarantined: bool = False

    @property
    def ok(self) -> bool:
        return self.error is None


class _TaskState:
    __slots__ = ("task", "attempts", "ready_at")

    def __init__(self, task: PoolTask) -> None:
        self.task = task
        self.attempts = 0
        self.ready_at = 0.0


class _Worker:
    __slots__ = ("proc", "conn", "hb", "state", "dispatched_at", "lane", "span")

    def __init__(self, proc, conn, hb, lane: int = 0) -> None:
        self.proc = proc
        self.conn = conn
        self.hb = hb
        self.state: _TaskState | None = None
        self.dispatched_at = 0.0
        #: Stable per-worker render lane for the orchestrator's attempt
        #: spans — one Perfetto track per worker slot, respawns included.
        self.lane = lane
        #: In-flight attempt span (tracing on only).
        self.span = None


class SupervisedPool:
    """A worker pool that survives its workers.

    Use as a context manager — ``__exit__`` force-terminates every
    worker, so an exception (or Ctrl-C) anywhere in the sweep can never
    leak orphaned processes::

        with SupervisedPool(jobs) as pool:
            outcomes = pool.run(tasks, on_event=...)

    Every worker runs under the snapshot of the run context
    (:mod:`repro.context`) taken when the pool is built, and every
    reply's telemetry delta merges back into that context.

    ``on_event(kind, task, info)`` observes the lifecycle —
    ``dispatch`` (info: attempt), ``done`` (info: value), ``retry``
    (info: message), ``failed`` (info: (error, message, quarantined)),
    ``respawn`` (info: reason), ``corrupt`` (info: message), ``drain``
    — which is how :func:`run_sweep` keeps its journal exact.
    """

    def __init__(
        self,
        jobs: int,
        policy: SupervisorPolicy | None = None,
        fault_plan: ProcessFaultPlan | None = None,
    ) -> None:
        self.jobs = max(1, jobs)
        self.policy = policy or SupervisorPolicy()
        # One snapshot for every spawn and respawn, so a replacement
        # worker is indistinguishable from the one it replaces.
        self.context = context.current()
        self.snapshot = self.context.snapshot()
        self.fault_plan = fault_plan
        self.tracer = self.context.tracer
        self._ctx = get_context(_MP_CONTEXT)
        self._workers: list[_Worker] = []
        self._next_lane = 0
        self._drain = False
        self._old_handlers: list[tuple[int, object]] = []

    # ---------------------------------------------------------- lifecycle

    def __enter__(self) -> "SupervisedPool":
        return self

    def __exit__(self, *exc) -> None:
        self.shutdown()

    def shutdown(self) -> None:
        """Terminate and reap every worker (idempotent, never raises)."""
        for worker in self._workers:
            try:
                worker.proc.terminate()
            except Exception:
                pass
        for worker in self._workers:
            try:
                worker.proc.join(timeout=5.0)
                if worker.proc.is_alive():
                    worker.proc.kill()
                    worker.proc.join(timeout=5.0)
            except Exception:
                pass
            try:
                worker.conn.close()
            except Exception:
                pass
        self._workers.clear()

    def _spawn_worker(self, lane: int | None = None) -> _Worker:
        parent_conn, child_conn = self._ctx.Pipe()
        hb = RawValue("d", 0.0)
        proc = self._ctx.Process(
            target=_worker_main,
            args=(child_conn, hb, self.snapshot, self.fault_plan,
                  self.policy.heartbeat_interval, time.time()),
            daemon=True,
        )
        proc.start()
        child_conn.close()  # parent must not hold the child end: EOF detection
        if lane is None:
            lane = self._next_lane
            self._next_lane += 1
        if self.tracer is not None:
            self.tracer.mark("worker.spawn", category="worker", lane=lane, pid=proc.pid)
        return _Worker(proc, parent_conn, hb, lane=lane)

    # ------------------------------------------------------------ signals

    def _signal_drain(self, signum, frame) -> None:
        self._drain = True

    def _install_signals(self) -> None:
        for signum in (signal.SIGINT, signal.SIGTERM):
            try:
                self._old_handlers.append((signum, signal.signal(signum, self._signal_drain)))
            except ValueError:  # pragma: no cover - not the main thread
                pass

    def _restore_signals(self) -> None:
        for signum, handler in self._old_handlers:
            try:
                signal.signal(signum, handler)
            except ValueError:  # pragma: no cover
                pass
        self._old_handlers.clear()

    # ---------------------------------------------------------------- run

    def run(self, tasks, on_event=None) -> dict[str, TaskOutcome]:
        """Supervise *tasks* to completion; returns ``{id: outcome}``.

        Raises:
            KeyboardInterrupt: a SIGINT/SIGTERM arrived; dispatch
                stopped, workers were terminated and ``on_event`` saw a
                ``drain`` — the caller flushes its journal and exits.
        """
        emit = on_event or (lambda kind, task, info: None)
        tasks = list(tasks)
        queue: list[_TaskState] = [_TaskState(t) for t in tasks]
        waiting: list[_TaskState] = []
        outcomes: dict[str, TaskOutcome] = {}
        self._install_signals()
        try:
            want = min(self.jobs, len(tasks)) or 1
            while len(self._workers) < want:
                self._workers.append(self._spawn_worker())
            while True:
                now = time.monotonic()
                for state in [s for s in waiting if s.ready_at <= now]:
                    waiting.remove(state)
                    queue.append(state)
                if self._drain:
                    break
                for worker in self._workers:
                    if worker.state is None and queue:
                        self._dispatch(worker, queue.pop(0), outcomes, waiting, emit)
                busy = [w for w in self._workers if w.state is not None]
                if not busy:
                    if waiting:
                        next_ready = min(s.ready_at for s in waiting)
                        time.sleep(min(max(next_ready - now, 0.0), _TICK) or 0.001)
                        continue
                    if queue:  # pragma: no cover - dispatch always drains it
                        continue
                    break
                ready = connection.wait([w.conn for w in busy], timeout=_TICK)
                for conn in ready:
                    worker = next(w for w in self._workers if w.conn is conn)
                    try:
                        msg = conn.recv()
                    except (EOFError, OSError):
                        self._worker_lost(worker, "worker process died", outcomes, waiting, emit)
                        continue
                    self._on_message(worker, msg, outcomes, waiting, emit)
                self._check_liveness(outcomes, waiting, emit)
            if self._drain:
                emit("drain", None, None)
                self.shutdown()
                raise KeyboardInterrupt("sweep drained on SIGINT/SIGTERM")
            return outcomes
        finally:
            self._restore_signals()

    # ----------------------------------------------------------- plumbing

    def _dispatch(self, worker: _Worker, state: _TaskState, outcomes, waiting, emit) -> None:
        state.attempts += 1
        worker.state = state
        worker.dispatched_at = time.monotonic()
        emit("dispatch", state.task, state.attempts)
        ctx = None
        if self.tracer is not None:
            label = state.task.label or state.task.id
            worker.span = self.tracer.begin(
                label, category="cell.attempt", lane=worker.lane,
                attempt=state.attempts, worker_lane=worker.lane,
            )
            ctx = (*self.tracer.context(worker.span), label)
        try:
            worker.conn.send(
                ("task", state.task.id, state.attempts, state.task.fn,
                 state.task.payload, ctx)
            )
        except (BrokenPipeError, OSError):  # pragma: no cover - spawn-time race
            self._worker_lost(worker, "worker pipe broke at dispatch",
                              outcomes, waiting, emit)

    def _on_message(self, worker, msg, outcomes, waiting, emit) -> None:
        state = worker.state
        span = worker.span
        worker.state = None
        worker.span = None
        kind = msg[0]
        if state is None or msg[1] != state.task.id:  # pragma: no cover - protocol guard
            return
        self.context.merge(msg[5])
        if kind == "error":
            error, message = msg[3], msg[4]
            if self.tracer is not None and span is not None:
                self.tracer.finish(span, status=tracing.ERROR, error=error)
            self._register_failure(state, error, message, outcomes, waiting, emit)
            return
        blob, digest = msg[3], msg[4]
        if hashlib.sha256(blob).hexdigest() != digest:
            if self.tracer is not None and span is not None:
                self.tracer.finish(span, status=tracing.ERROR, error="ResultCorruption")
            emit("corrupt", state.task,
                 f"result payload failed checksum on attempt {state.attempts}")
            self._register_failure(
                state, "ResultCorruption",
                "worker result rejected by SHA-256 transport checksum",
                outcomes, waiting, emit,
            )
            return
        if self.tracer is not None and span is not None:
            self.tracer.finish(span)
        value = pickle.loads(blob)
        outcomes[state.task.id] = TaskOutcome(
            task_id=state.task.id, value=value, attempts=state.attempts
        )
        emit("done", state.task, value)

    def _check_liveness(self, outcomes, waiting, emit) -> None:
        now = time.monotonic()
        for worker in list(self._workers):
            if worker.state is None:
                continue
            if not worker.proc.is_alive():
                self._worker_lost(worker, "worker process died", outcomes, waiting, emit)
                continue
            age = now - worker.dispatched_at
            timeout = self.policy.cell_timeout
            if timeout is not None:
                timeout *= worker.state.task.timeouts
            if timeout is not None and age > timeout:
                self._worker_lost(
                    worker,
                    f"cell exceeded its {timeout:g}s timeout (stalled worker)",
                    outcomes, waiting, emit, kill=True,
                )
                continue
            beat = worker.hb.value
            if (
                self.policy.heartbeat_timeout is not None
                and beat > 0.0
                and now - beat > self.policy.heartbeat_timeout
            ):
                self._worker_lost(
                    worker,
                    f"worker heartbeat silent for {now - beat:.1f}s",
                    outcomes, waiting, emit, kill=True,
                )

    def _worker_lost(self, worker, reason, outcomes, waiting, emit, kill=False) -> None:
        """A worker died or must die: reap it, respawn, retry its cell."""
        state = worker.state
        span = worker.span
        worker.state = None
        worker.span = None
        if self.tracer is not None:
            if span is not None:
                self.tracer.finish(span, status=tracing.ERROR, error="WorkerCrash",
                                   reason=reason)
            self.tracer.mark("worker.lost", category="worker", lane=worker.lane,
                             reason=reason)
        if kill:
            try:
                worker.proc.kill()
            except Exception:
                pass
        try:
            worker.proc.join(timeout=5.0)
        except Exception:
            pass
        try:
            worker.conn.close()
        except Exception:
            pass
        self._workers.remove(worker)
        if not self._drain:
            self._workers.append(self._spawn_worker(lane=worker.lane))
            emit("respawn", state.task if state else None, reason)
        if state is not None:
            self._register_failure(state, "WorkerCrash", reason, outcomes, waiting, emit)

    def _register_failure(self, state, error, message, outcomes, waiting, emit) -> None:
        task = state.task
        if state.attempts <= task.max_retries:
            delay = self.policy.retry_delay(task.id, state.attempts)
            state.ready_at = time.monotonic() + delay
            waiting.append(state)
            if self.tracer is not None:
                self.tracer.mark(
                    "cell.backoff", category="cell", attempt=state.attempts,
                    delay_seconds=round(delay, 3), error=error,
                )
            emit("retry", task, f"{error}: {message}")
            return
        quarantined = task.max_retries > 0
        outcomes[task.id] = TaskOutcome(
            task_id=task.id, error=error, message=message,
            attempts=state.attempts, quarantined=quarantined,
        )
        emit("failed", task, (error, message, quarantined))


# --------------------------------------------------------------------------
# The journal-aware sweep orchestrator
# --------------------------------------------------------------------------

def _execute_cells(payload) -> list[tuple[SimStats, object]]:
    """One benchmark's (benchmark × config) timing cells, inside a worker.

    Returns one ``(stats, record)`` per config, in order.  Collection is
    *resilient* (one bounded retry at a degraded budget — the inner
    retry the supervisor's outer backoff retry composes with); the
    degradation record, if any, rides back with the first cell so the
    parent can register the reduced budget and report it once.  The
    configs share one trace and simulate through
    :func:`~repro.timing.simulator.simulate_configs`.

    A :class:`~repro.timing.sampling.SamplingPlan` as the last payload
    element switches the cells to statistical sampling: the plan's
    deterministic schedule replaces the trace-collect/simulate pipeline
    (:func:`~repro.timing.sampling.sample_configs`, one machine and one
    warming pass for the configs), ``max_steps`` becomes the sampled
    instruction horizon, and the returned stats carry the
    ``sampling.*`` error-bar fields in ``extra``.
    """
    from repro.experiments import runner
    from repro.timing.simulator import simulate_configs

    name, configs, max_steps, warmup, iters, skip, profile, plan = payload
    label = f"{name}/{'+'.join(config.name for config in configs)}"
    if plan is not None:
        from repro.harness.watchdog import Watchdog
        from repro.timing.sampling import sample_configs

        wall = runner.wall_timeout()
        # The cells' budgets add up, and sample_configs adds one more
        # for each rider it re-runs: a group never times out where its
        # cells, run one by one, would not.
        watchdog = (
            Watchdog(max_seconds=wall * len(configs), label=f"sample[{name}]")
            if wall else None
        )
        with traced(f"sample.{label}", category="simulate"):
            results = sample_configs(
                name, configs, plan, budget=max_steps,
                iters=iters, skip=skip, profile=profile, watchdog=watchdog,
            )
        return [(result.stats, None) for result in results]
    with traced(f"collect.{name}", category="collect"):
        trace, record = runner.collect_trace_resilient(
            name, max_steps + warmup, iters=iters, skip=skip, profile=profile
        )
    if trace is None:
        raise RuntimeError(record.describe())
    with traced(f"simulate.{label}", category="simulate"):
        runs = simulate_configs(configs, trace, warmup=warmup)
    return [(stats, record if i == 0 else None) for i, stats in enumerate(runs)]


class _NullJournal:
    """In-memory stand-in when no ``--journal`` was requested."""

    def __init__(self, cells: list[CellRecord]) -> None:
        self.cells = cells
        self.summary: dict = {}
        self._by_key = {cell.key: cell for cell in cells}

    def flush(self) -> None:
        pass

    def load_result(self, key: str):
        return None

    def mark_running(self, key: str) -> None:
        cell = self._by_key[key]
        cell.state, cell.attempts = "running", cell.attempts + 1

    def mark_done(self, key: str, stats) -> None:
        self._by_key[key].state = DONE

    def mark_retry(self, key: str, error: str) -> None:
        cell = self._by_key[key]
        cell.state, cell.error = PENDING, error

    def mark_failed(self, key: str, error: str, quarantined: bool = False) -> None:
        cell = self._by_key[key]
        cell.state, cell.error = (QUARANTINED if quarantined else FAILED), error


def run_sweep(
    names,
    configs,
    max_steps: int,
    warmup: int,
    jobs: int = 1,
    iters: int | None = None,
    skip: int | None = None,
    profile: str = "ref",
    journal_path: str | Path | None = None,
    resume: bool = False,
    policy: SupervisorPolicy | None = None,
    fault_plan: ProcessFaultPlan | None = None,
    keep_going: bool = False,
    progress=None,
    sampling=None,
):
    """Run a (benchmark × config) grid under supervision, journaled.

    Returns ``(grid, failures, degraded, report)``: the cell grid
    (``grid[benchmark][config_name]`` is the cell's :class:`SimStats`),
    the quarantined/failed cells as ``FailureRecord``s, degraded-budget
    records, and the :class:`SupervisorReport`.

    Each benchmark's pending cells run as one task, on one trace (exact)
    or one machine and warming pass (sampled), whatever *jobs* is; every
    cell is still journaled, retried, spanned and reported on its own.

    With *journal_path* every cell transition is persisted atomically;
    with *resume* a matching existing journal replays its completed
    cells from the result store (zero re-execution) and re-dispatches
    only the remainder — previously failed or quarantined cells get a
    fresh retry budget.  Merged results are bit-identical to an
    uninterrupted run because every cell is a pure function and
    :meth:`SimStats.merge` is commutative.

    *sampling* (a :class:`~repro.timing.sampling.SamplingPlan`) runs
    every cell in statistical-sampling mode: ``max_steps`` becomes the
    sampled horizon, results carry bootstrap error bars, and the plan's
    canonical string joins the cell keys — a sampled journal can never
    be resumed as an exact one (or under different sampling knobs), and
    the whole sweep replays bit-identically under ``--resume`` and any
    ``--jobs N``.

    When a tracer is active (``--trace-spans``) the whole lifecycle is
    spanned: a ``sweep.run`` root, journal load/replay, one completed
    ``cell`` span per done cell (resumed cells get a zero-cost span
    flagged ``resume``), per-attempt spans on one lane per worker, and
    retry/quarantine/straggler annotations.  *progress* (a
    :class:`~repro.experiments.progress.SweepProgress`) drives the
    ``--live`` status line from the same event stream.
    """
    from repro.experiments import runner
    from repro.experiments.runner import FailureRecord
    from repro.workloads import get_workload

    policy = policy or SupervisorPolicy()
    names, configs = list(names), list(configs)
    run_context = context.current()
    tracer, session = run_context.tracer, run_context.session
    root = None
    if tracer is not None:
        root = tracer.begin(
            "sweep.run", category="sweep",
            benchmarks=len(names), configs=len(configs), jobs=jobs,
        )
        tracer.default_parent = root.span_id
    if fault_plan is None:
        fault_plan = ProcessFaultPlan.from_env()
    orch_kill_after = int(os.environ.get(ORCH_KILL_ENV_VAR, "0") or 0)

    report = SupervisorReport(cells_total=len(names) * len(configs))
    failures: list[FailureRecord] = []
    degraded: list[FailureRecord] = []

    # Cell identities: keyed over config contents and program image, so
    # a journal can never be resumed against a semantically different
    # sweep.
    images: dict[str, str] = {}
    ok_names: list[str] = []
    for name in names:
        try:
            program = get_workload(name).build(iters=iters, profile=profile)
            images[name] = program_digest(program)
            ok_names.append(name)
        except Exception as exc:
            if not keep_going:
                raise
            failures.append(
                FailureRecord(benchmark=name, stage="build",
                              error=type(exc).__name__, message=str(exc))
            )
            report.cells_total -= len(configs)
    sampling_id = sampling.canonical() if sampling is not None else None
    cells: list[CellRecord] = []
    config_of: dict[str, object] = {}
    labels: dict[str, str] = {}
    for name in ok_names:
        for config in configs:
            key = cell_key(name, config, max_steps, warmup, iters, skip, profile,
                           images[name], sampling=sampling_id)
            cells.append(CellRecord(benchmark=name, config=config.name, key=key))
            config_of[key] = config
            labels[key] = f"{name}/{config.name}"

    if journal_path is not None:
        path = Path(journal_path)
        if resume and path.exists():
            with traced("journal.load", category="journal", path=str(path)):
                journal = SweepJournal.load(path)
                journal.match_cells(cells)
        else:
            with traced("journal.create", category="journal", path=str(path)):
                journal = SweepJournal.create(
                    path,
                    spec={
                        "benchmarks": ok_names,
                        "configs": [c.name for c in configs],
                        "max_steps": max_steps,
                        "warmup": warmup,
                        "iters": iters,
                        "skip": skip,
                        "profile": profile,
                        "images": images,
                        "sampling": sampling_id,
                    },
                    cells=cells,
                )
    else:
        journal = _NullJournal(cells)

    # Resume replay: completed cells come back from the result store;
    # cells whose stored result is missing/corrupt are demoted and
    # re-executed (never trusted); failed/quarantined cells get a fresh
    # retry budget.
    results: dict[str, SimStats] = {}
    with traced("journal.replay", category="journal"):
        for cell in journal.cells:
            if cell.state == DONE:
                stats = journal.load_result(cell.key)
                if stats is None:
                    report.corrupt_results += 1
                    cell.state = PENDING
                    cell.error = "stored result missing or corrupt; re-executing"
                else:
                    results[cell.key] = stats
                    report.resume_hits += 1
                    if tracer is not None:
                        # The one completed span a resumed cell gets: it
                        # cost a journal read, not a re-execution.
                        tracer.record(
                            labels.get(cell.key, cell.key), category="cell",
                            resume=True, attempts=cell.attempts,
                        )
            elif cell.state in (FAILED, QUARANTINED):
                cell.state = PENDING
                cell.error = None
    journal.flush()

    pending = [cell for cell in journal.cells if cell.state == PENDING]
    if progress is not None:
        progress.set_total(report.cells_total)
        if report.resume_hits:
            progress.resume_hit(report.resume_hits)
    # One task per benchmark, its pending cells in config order.
    groups: dict[str, list[CellRecord]] = {}
    for cell in pending:
        groups.setdefault(cell.benchmark, []).append(cell)
    members: dict[str, list[str]] = {}
    tasks: list[PoolTask] = []
    for group in groups.values():
        keys = [cell.key for cell in group]
        task = PoolTask(
            id="+".join(keys),
            fn="repro.experiments.supervisor:_execute_cells",
            payload=(group[0].benchmark, [config_of[key] for key in keys], max_steps,
                     warmup, iters, skip, profile, sampling),
            max_retries=policy.max_cell_retries,
            label=f"{group[0].benchmark}/{'+'.join(cell.config for cell in group)}",
            # A sampled rider that drops out of its group runs again on
            # its own, so it may need a second cell's time.
            timeouts=len(keys) if sampling is None else 2 * len(keys) - 1,
        )
        members[task.id] = keys
        tasks.append(task)
    executed = 0
    failed_cells = 0
    dispatched_at: dict[str, float] = {}
    cell_wall: dict[str, float] = {}
    cell_spans: dict[str, object] = {}
    attempts_by_key: dict[str, int] = {}
    inflight: set[str] = set()

    def note_progress() -> None:
        if session is not None:
            session.note_sweep_progress(
                done=report.resume_hits + executed,
                total=report.cells_total,
                failed=failed_cells,
                in_flight=len(inflight),
            )

    def on_event(kind, task, info) -> None:
        nonlocal executed, failed_cells
        keys = members[task.id] if task is not None else []
        if kind == "dispatch":
            dispatched_at[task.id] = time.monotonic()
            for key in keys:
                if info > 1:
                    report.retries += 1
                attempts_by_key[key] = info
                inflight.add(key)
                journal.mark_running(key)
                if tracer is not None and key not in cell_spans:
                    cell_spans[key] = tracer.begin(labels.get(key, key), category="cell")
                if progress is not None:
                    progress.dispatch(key, labels.get(key, key))
        elif kind == "done":
            # Each cell is charged an equal share of the task's wall, so
            # the cells' walls still add up to the worker's time.
            wall = time.monotonic() - dispatched_at.get(task.id, time.monotonic())
            for key, (stats, record) in zip(keys, info, strict=True):
                cell_wall[key] = wall / len(keys)
                inflight.discard(key)
                if record is not None and record.degraded_steps is not None:
                    degraded.append(record)
                    runner.set_budget_override(record.benchmark, record.degraded_steps)
                results[key] = stats
                journal.mark_done(key, stats)
                executed += 1
                report.cells_executed += 1
                if tracer is not None:
                    span = cell_spans.pop(key, None)
                    if span is not None:
                        tracer.finish(span, attempts=attempts_by_key.get(key, 1))
                if progress is not None:
                    progress.retire(key)
                note_progress()
                if orch_kill_after and executed >= orch_kill_after:
                    # Chaos: the orchestrator itself dies mid-sweep, with
                    # the journal flushed through this very cell.
                    os.kill(os.getpid(), signal.SIGKILL)
        elif kind == "retry":
            for key in keys:
                journal.mark_retry(key, info)
        elif kind == "corrupt":
            report.corrupt_results += 1
        elif kind == "respawn":
            report.respawns += 1
        elif kind == "failed":
            error, message, quarantined = info
            for key in keys:
                inflight.discard(key)
                failed_cells += 1
                journal.mark_failed(key, f"{error}: {message}", quarantined=quarantined)
                if tracer is not None:
                    span = cell_spans.pop(key, None)
                    if span is not None:
                        tracer.finish(
                            span, status=tracing.ERROR, error=error,
                            quarantined=quarantined,
                            attempts=attempts_by_key.get(key, 1),
                        )
                    if quarantined:
                        tracer.mark("cell.quarantine", category="cell",
                                    cell=labels.get(key, key), error=error)
                if progress is not None:
                    progress.retire(key, failed=True)
                note_progress()

    if pending:
        try:
            with SupervisedPool(jobs, policy=policy, fault_plan=fault_plan) as pool:
                outcomes = pool.run(tasks, on_event=on_event)
        except KeyboardInterrupt:
            # Graceful drain: the journal already reflects every
            # completed cell; record the interruption and re-raise.
            report.drained = True
            journal.summary = report.to_dict()
            journal.flush()
            run_context.sweep_report = report
            if tracer is not None and root is not None:
                tracer.finish(root, status=tracing.ERROR, error="Drained")
            raise
        task_of = {key: task_id for task_id, keys in members.items() for key in keys}
        for cell in pending:
            outcome = outcomes.get(task_of[cell.key])
            if outcome is None:  # pragma: no cover - drain leaves no outcome
                continue
            if not outcome.ok:
                if outcome.quarantined:
                    report.quarantined += 1
                failures.append(
                    FailureRecord(
                        benchmark=cell.benchmark,
                        stage=f"simulate[{cell.config}]",
                        error=outcome.error,
                        message=outcome.message,
                        retried=outcome.attempts > 1,
                    )
                )

    # Canonical-order grid: identical regardless of completion order.
    grid: dict[str, dict[str, SimStats]] = {}
    for cell in cells:
        stats = results.get(cell.key)
        if stats is not None:
            grid.setdefault(cell.benchmark, {})[cell.config] = stats

    # Campaign-health detectors: cells far beyond the median wall time,
    # and cells that burned retries.  Both land in the manifest's
    # supervisor block (and the journal summary) with the counters.
    report.stragglers = detect_stragglers(cell_wall, labels, policy.straggler_factor)
    report.retry_storms = sorted(
        (
            {"cell": labels.get(key, key), "attempts": n}
            for key, n in attempts_by_key.items()
            if n > 1
        ),
        key=lambda rec: -rec["attempts"],
    )
    if tracer is not None:
        for rec in report.stragglers:
            tracer.mark("cell.straggler", category="cell", **rec)

    journal.summary = report.to_dict()
    journal.flush()
    run_context.sweep_report = report
    if session is not None:
        # Cells simulate inside workers (no session there), so the
        # orchestrator records them for the BENCH snapshot here —
        # executed cells with their dispatch-to-done wall time, resumed
        # cells at zero wall (they cost one journal read).
        for cell in cells:
            stats = results.get(cell.key)
            if stats is not None:
                session.current_benchmark = cell.benchmark
                session.record_run(stats, cell_wall.get(cell.key, 0.0))
    if tracer is not None and root is not None:
        tracer.finish(
            root,
            status=tracing.ERROR if failures else tracing.OK,
            cells_executed=report.cells_executed,
            resume_hits=report.resume_hits,
            failed=len(failures),
        )
    if failures and not keep_going:
        raise RuntimeError(failures[0].describe())
    return grid, failures, degraded, report


__all__ = [
    "ORCH_KILL_ENV_VAR",
    "PoolTask",
    "SupervisedPool",
    "SupervisorPolicy",
    "SupervisorReport",
    "TaskOutcome",
    "detect_stragglers",
    "last_report",
    "run_sweep",
]
