"""Shared benchmark configuration.

The benches regenerate every paper table/figure at a feasible scale
(pure-Python simulation): a representative benchmark subset and a
shorter window than the CLI defaults.  Full-suite regeneration is
documented in EXPERIMENTS.md (``repro-experiment all``).
"""

from __future__ import annotations

import pytest

#: Window per benchmark for timing benches (instructions).
BENCH_INSTRUCTIONS = 8_000
BENCH_WARMUP = 2_000

#: Representative subset covering the suite's behaviour space:
#: compression (bzip), pointer-chasing (li), memory-bound (mcf),
#: OO-store (vortex).
BENCH_SUBSET = ("bzip", "li", "mcf", "vortex")


@pytest.fixture(autouse=True, scope="session")
def _no_persistent_trace_cache():
    """Benchmarks measure real collection cost: a warm ~/.cache would
    silently turn an emulation bench into an npz-load bench."""
    from repro import context

    context.reset(cache_enabled=False)
    yield
    context.reset(cache_enabled=False)


@pytest.fixture(scope="session")
def fig11_sweep():
    """One shared Figure 11 sweep reused by the fig11/fig12 benches."""
    from repro.experiments import figure11

    return figure11.run(
        BENCH_SUBSET, instructions=BENCH_INSTRUCTIONS, slice_counts=(2, 4), warmup=BENCH_WARMUP
    )


def once(benchmark, fn, *args, **kwargs):
    """Run *fn* exactly once under pytest-benchmark timing."""
    return benchmark.pedantic(fn, args=args, kwargs=kwargs, rounds=1, iterations=1)
