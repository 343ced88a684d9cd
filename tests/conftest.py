"""Shared fixtures: small, fast traces and programs for tests.

Workload traces here use explicit tiny iteration counts and skip=0, so
they cover the guests from their first instruction.  (The default skip
comes from the committed calibration table and costs two assemblies;
``tests/test_calibration.py`` re-runs the fit behind it.)
"""

from __future__ import annotations

import pytest

from repro.emulator import blocks
from repro.emulator.machine import Machine
from repro.experiments import runner, supervisor, trace_cache
from repro.obs import guestprof
from repro.isa.assembler import assemble
from repro.workloads import get_workload


@pytest.fixture(autouse=True)
def _isolate_runner_globals(monkeypatch):
    """Keep the runner's process-global knobs from leaking across tests.

    ``set_wall_timeout`` and the persistent trace cache are module
    state; a test that sets either must not change the behaviour of
    every test that runs after it.  The cache is disabled both
    explicitly and via the environment (the CLI's ``main()`` resets the
    explicit configuration, so the env layer is what actually protects
    CLI tests) — the suite never reads or writes ``~/.cache``.  Cache
    tests opt back in with ``trace_cache.configure(tmp_path,
    enabled=True)``.
    """
    monkeypatch.setenv(trace_cache.ENV_VAR, "off")
    trace_cache.configure(enabled=False)
    trace_cache.reset_stats()
    yield
    runner.set_wall_timeout(None)
    runner._budget_overrides.clear()
    trace_cache.configure(enabled=False)
    trace_cache.reset_stats()
    supervisor.reset_stats()
    blocks.reset_stats()
    guestprof.end_guest_profile()


@pytest.fixture(scope="session")
def small_traces():
    """name → tuple of trace records (short, init-inclusive)."""

    def collect(name: str, n: int = 4000, iters: int = 1):
        machine = Machine(get_workload(name).build(iters))
        return tuple(machine.trace(n))

    return {
        "bzip": collect("bzip"),
        "li": collect("li"),
        "mcf": collect("mcf"),
        "vortex": collect("vortex"),
    }


@pytest.fixture()
def asm_run():
    """Helper: assemble source, run to halt, return the machine."""

    def run(source: str, max_steps: int = 200_000) -> Machine:
        machine = Machine(assemble(source))
        machine.run(max_steps)
        return machine

    return run
