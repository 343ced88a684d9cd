"""The sweep worker: what a spawned process of the supervised pool runs.

:class:`~repro.experiments.supervisor.SupervisedPool` starts each
worker with :func:`worker_main` as its target and sends it tasks by
executor name (``module:function``); :func:`execute_cells` is the
sweep's executor.

The module sits outside :mod:`repro.experiments` so that a worker
imports what its cells run and nothing more.  A sampled cell imports
the emulator, the timing model and the sampler: no numpy, and no
experiment layer (runner, trace cache, journal, supervisor).  An exact
cell imports the runner and the trace cache when it runs, and numpy
when it reads or writes a cached trace.  Spawn re-imports the parent's
``__main__`` in every worker, so a sweep launched as ``python -m
repro.experiments.cli`` (or through the ``repro-experiment`` script)
still brings the CLI's own imports along: the runner and the trace
cache, but no experiment module and no numpy.
"""

from __future__ import annotations

import hashlib
import importlib
import os
import pickle
import signal
import threading
import time

from repro import context
from repro.obs import tracing
from repro.obs.tracing import traced

#: Worker heartbeat period (seconds).
HEARTBEAT_INTERVAL = 0.5


def _resolve(fn_name: str):
    """Import a ``module:function`` task executor inside a worker."""
    module, _, attr = fn_name.partition(":")
    return getattr(importlib.import_module(module), attr)


def _heartbeat_loop(hb) -> None:
    while True:
        hb.value = time.monotonic()
        time.sleep(HEARTBEAT_INTERVAL)


def worker_main(conn, hb, snapshot, fault_plan, spawned_at) -> None:
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
    threading.Thread(target=_heartbeat_loop, args=(hb,), daemon=True).start()
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


def execute_cells(payload) -> list[tuple]:
    """One benchmark's (benchmark × config) timing cells, inside a worker.

    Returns one ``(stats, record)`` per config, in order: the cell's
    :class:`~repro.timing.stats.SimStats` and, with the first cell, the
    collection's degradation record.  Collection is *resilient* (one
    bounded retry at a degraded budget — the inner retry the
    supervisor's outer backoff retry composes with); the degradation
    record, if any, rides back with the first cell so the parent can
    register the reduced budget and report it once.  The configs share
    one trace and simulate through
    :func:`~repro.timing.simulator.simulate_configs`.

    A :class:`~repro.timing.sampling.SamplingPlan` as the last payload
    element switches the cells to statistical sampling: the plan's
    deterministic schedule replaces the trace-collect/simulate pipeline
    (:func:`~repro.timing.sampling.sample_configs`, one machine and one
    warming pass for the configs), ``max_steps`` becomes the sampled
    instruction horizon, and the returned stats carry the
    ``sampling.*`` error-bar fields in ``extra``.
    """
    name, configs, max_steps, warmup, profile, plan = payload
    label = f"{name}/{'+'.join(config.name for config in configs)}"
    if plan is not None:
        from repro.harness.watchdog import Watchdog
        from repro.timing.sampling import sample_configs

        wall = context.current().wall_timeout
        # The cells' budgets add up, and sample_configs adds one more
        # for each rider it re-runs: a group never times out where its
        # cells, run one by one, would not.
        watchdog = (
            Watchdog(max_seconds=wall * len(configs), label=f"sample[{name}]")
            if wall else None
        )
        with traced(f"sample.{label}", category="simulate"):
            results = sample_configs(
                name, configs, plan, budget=max_steps, profile=profile, watchdog=watchdog,
            )
        return [(result.stats, None) for result in results]
    from repro.experiments import runner
    from repro.timing.simulator import simulate_configs

    with traced(f"collect.{name}", category="collect"):
        trace, record = runner.collect_trace_resilient(name, max_steps + warmup, profile=profile)
    if trace is None:
        raise RuntimeError(record.describe())
    with traced(f"simulate.{label}", category="simulate"):
        runs = simulate_configs(configs, trace, warmup=warmup)
    return [(stats, record if i == 0 else None) for i, stats in enumerate(runs)]


__all__ = ["HEARTBEAT_INTERVAL", "execute_cells", "worker_main"]
