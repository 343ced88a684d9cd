"""Parallel layer: collection fan-out, state inheritance, swept grids."""

from __future__ import annotations

import pytest

from repro import context
from repro.core.config import baseline_config, simple_pipeline_config
from repro.experiments import parallel, runner, trace_cache
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


def test_collect_parallel_matches_sequential():
    names = ["li", "mcf"]
    surviving, failures, degraded = parallel.collect_parallel(names, N, jobs=2)
    assert surviving == names and not failures and not degraded
    for name in names:
        preloaded = runner.collect_trace(name, N)
        runner._collect.cache_clear()
        runner._preloaded.clear()
        assert preloaded == runner.collect_trace(name, N)


def test_collect_parallel_preloads_parent_cache():
    parallel.collect_parallel(["li"], N, jobs=1)
    assert ("li", N, None, None, "ref") in runner._preloaded


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

    surviving, failures, degraded = parallel.collect_parallel(["li"], N, jobs=1)
    assert surviving == [] and not degraded
    (record,) = failures
    assert record.benchmark == "li" and record.stage == "collect"


def test_workers_inherit_dispatch_mode(monkeypatch):
    """The parent's REPRO_DISPATCH reaches spawned workers."""
    monkeypatch.setenv("REPRO_DISPATCH", "reference")
    surviving, failures, degraded = parallel.collect_parallel(["li"], N, jobs=1)
    assert surviving == ["li"] and not failures and not degraded
    preloaded = runner._preloaded[("li", N, None, None, "ref")]
    monkeypatch.delenv("REPRO_DISPATCH")
    runner.clear_trace_cache()
    # Traces are mode-invariant by construction, so the worker's
    # reference-tier collection must equal a sequential default one.
    assert preloaded == runner.collect_trace("li", N)


def test_workers_inherit_cache_config(tmp_path):
    trace_cache.configure(tmp_path, enabled=True)
    parallel.collect_parallel(["li"], N, jobs=1)
    assert len(list(tmp_path.iterdir())) == 1  # worker wrote the entry
    stats = trace_cache.stats()
    assert stats["misses"] == 1 and stats["hits"] == 0
    # Second pass: the worker reads the entry the first worker wrote.
    runner.clear_trace_cache()
    trace_cache.configure(tmp_path, enabled=True)
    parallel.collect_parallel(["li"], N, jobs=1)
    stats = trace_cache.stats()
    assert stats["hits"] == 1 and stats["misses"] == 0


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
