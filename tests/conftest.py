"""Shared fixtures: small, fast traces and programs for tests.

Workload traces here use explicit tiny iteration counts and skip=0, so
they cover the guests from their first instruction.  (The default skip
comes from the committed calibration table and costs two assemblies;
``tests/test_calibration.py`` re-runs the fit behind it.)
"""

from __future__ import annotations

import pytest

from repro import context
from repro.emulator.machine import Machine
from repro.experiments import trace_cache
from repro.isa.assembler import assemble
from repro.workloads import get_workload


@pytest.fixture(autouse=True)
def _isolate_run_context(monkeypatch):
    """Keep the run context, and with it every counter, from leaking
    across tests.

    A test that sets a timeout, a budget override, a cache directory, a
    recorder, or moves a counter or the sweep report must not change the
    behaviour of every test that runs after it: each test starts and
    ends with a fresh run context.  The cache is disabled both
    explicitly and via the environment (the CLI's ``main()`` activates a
    context of its own, so the env layer is what actually protects CLI
    tests) — the suite never reads or writes ``~/.cache``.  Cache tests
    opt back in with ``trace_cache.configure(tmp_path, enabled=True)``.
    """
    monkeypatch.setenv(trace_cache.ENV_VAR, "off")
    context.reset(cache_enabled=False)
    yield
    context.reset(cache_enabled=False)


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
