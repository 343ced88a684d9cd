"""Parallel layer: worker state inheritance, swept grids."""

from __future__ import annotations

import pytest

from repro import context
from repro.core.config import baseline_config, simple_pipeline_config
from repro.experiments import runner, trace_cache
from repro.experiments.supervisor import PoolTask, SupervisedPool, SupervisorPolicy, run_sweep
from repro.harness.faults import ProcessFaultPlan
from repro.obs.guestprof import start_guest_profile
from repro.obs.tracing import start_tracing
from repro.timing.simulator import simulate
from repro.timing.stats import SimStats

N = 1_200
WARMUP = 200


@pytest.fixture(autouse=True)
def _fresh_runner():
    runner.clear_trace_cache()
    yield
    runner.clear_trace_cache()


def _sweep_li(**kwargs):
    """A one-benchmark, one-config sweep on one worker."""
    return run_sweep(["li"], [baseline_config()], N, WARMUP, jobs=1,
                     fault_plan=ProcessFaultPlan(), **kwargs)


def test_workers_inherit_wall_timeout(tmp_path):
    """A spawned worker and the worker respawned after a SIGKILL run
    under the parent's run context (timeout, budget overrides, cache
    directory and switch, guest profiling, tracing), and the timeout
    binds inside them."""
    runner.set_wall_timeout(1e-9)  # impossible budget: all attempts fail
    runner.set_budget_override("mcf", 900)
    trace_cache.configure(tmp_path / "cache", enabled=True)
    start_guest_profile()
    start_tracing()
    expected = context.current().snapshot()
    task = "tests._supervisor_tasks:run_context"
    tasks = [PoolTask(id="spawned", fn=task, payload=()),
             PoolTask(id="respawned", fn=task, payload=(str(tmp_path),), max_retries=1)]
    with SupervisedPool(1, policy=SupervisorPolicy(backoff=0.0)) as pool:
        outcomes = pool.run(tasks)
    assert outcomes["respawned"].attempts == 2
    assert outcomes["spawned"].value == expected == outcomes["respawned"].value
    assert expected.guest_profile and expected.tracing

    grid, failures, degraded, _ = _sweep_li(
        keep_going=True, policy=SupervisorPolicy(max_cell_retries=0, backoff=0.0)
    )
    assert grid == {} and not degraded
    (record,) = failures
    assert record.benchmark == "li"
    assert "li: collect failed with RunawayExecution" in record.message


def test_workers_inherit_dispatch_mode(monkeypatch):
    """The parent's REPRO_DISPATCH reaches spawned workers: a worker on
    the reference tier compiles no blocks, one on the default tier
    does, and both time the same trace."""
    tracer = start_tracing()
    monkeypatch.setenv("REPRO_DISPATCH", "reference")
    reference, failures, _, _ = _sweep_li()
    assert not failures
    assert [s.name for s in tracer.spans(category="emulate")] == ["emulate.li"]
    assert not tracer.spans(category="jit")
    monkeypatch.delenv("REPRO_DISPATCH")
    blocks, failures, _, _ = _sweep_li()
    assert not failures
    assert tracer.spans(category="jit")
    assert reference["li"]["ideal"].to_dict() == blocks["li"]["ideal"].to_dict()


def test_workers_inherit_cache_config(tmp_path):
    """A worker reads and writes the parent's trace cache: the first
    sweep's worker stores li's trace there, the second's reads it back
    and ships its ``cache.hit.li`` span home.  Each worker's miss and
    hit reach the orchestrator's cumulative ``trace_cache.stats()``,
    which the run manifest reports."""
    trace_cache.configure(tmp_path, enabled=True)
    tracer = start_tracing()
    first, failures, _, _ = _sweep_li()
    assert not failures
    assert len(list(tmp_path.iterdir())) == 1  # worker wrote the entry
    assert [s.name for s in tracer.spans(category="cache")] == ["cache.miss.li"]
    stats = trace_cache.stats()
    assert (stats["hits"], stats["misses"], stats["corrupt_entries"]) == (0, 1, 0)
    second, failures, _, _ = _sweep_li()
    assert not failures
    assert [s.name for s in tracer.spans(category="cache")] == ["cache.miss.li", "cache.hit.li"]
    stats = trace_cache.stats()
    assert (stats["hits"], stats["misses"], stats["corrupt_entries"]) == (1, 1, 0)
    assert first["li"]["ideal"].to_dict() == second["li"]["ideal"].to_dict()


def test_sweep_telemetry_matches_the_same_cell_in_process(tmp_path):
    """A worker's reply carries its whole telemetry home: a sweep's
    metrics dump, trace-cache traffic and block-engine counters equal
    those of the same cell run in-process.  Compile seconds and
    code-cache binds depend on the per-process code cache and stay out."""
    from repro.emulator import blocks
    from repro.experiments.supervisor import _execute_cells
    from repro.obs.session import ObsSession

    def telemetry():
        dump = context.current().session.finalize_registry().to_dict()["metrics"]
        cache = trace_cache.stats()
        engine = blocks.stats()
        del engine["compile_seconds"], engine["cache_binds"]
        return dump, (cache["hits"], cache["misses"]), engine

    configs = [baseline_config()]
    context.reset(session=ObsSession(), cache_dir=tmp_path / "swept", cache_enabled=True)
    _, failures, _, _ = run_sweep(["li"], configs, N, WARMUP, jobs=1,
                                  fault_plan=ProcessFaultPlan())
    assert not failures
    swept = telemetry()

    runner.clear_trace_cache()
    context.reset(session=ObsSession(), cache_dir=tmp_path / "inline", cache_enabled=True)
    _execute_cells(("li", configs, N, WARMUP, None, None, "ref", None))
    assert telemetry() == swept
    dump, cache, engine = swept
    assert dump["emulate.collections"]["value"] == 1
    assert dump["emulate.instructions"]["value"] == N + WARMUP
    assert dump["sim.runs"]["value"] == 1
    assert cache == (0, 1)
    assert engine["blocks_compiled"] > 0


def test_run_sweep_grid_matches_sequential_simulation():
    """Two benchmarks on two workers: one task per benchmark, each
    simulating both configs over one trace."""
    configs = [baseline_config(), simple_pipeline_config(2)]
    grid, failures, _, _ = run_sweep(
        ["li", "mcf"], configs, N, WARMUP, jobs=2, keep_going=True,
        fault_plan=ProcessFaultPlan(),
    )
    assert not failures
    for name in ("li", "mcf"):
        trace = runner.collect_trace(name, N + WARMUP)
        for config in configs:
            expected = simulate(config, trace, warmup=WARMUP)
            got = grid[name][config.name]
            assert got.to_dict() == expected.to_dict()


def test_merged_config_totals_are_order_independent():
    configs = [baseline_config()]
    grid, _, _, _ = run_sweep(
        ["li", "mcf"], configs, N, WARMUP, jobs=2, fault_plan=ProcessFaultPlan()
    )

    def totals(order):
        return SimStats.merge_all([grid[name][configs[0].name] for name in order]).to_dict()

    assert totals(["li", "mcf"]) == totals(["mcf", "li"])
