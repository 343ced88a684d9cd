"""Bench: simulator throughput (the classic pytest-benchmark use).

Measures the functional emulator and the timing simulator in
instructions per second, and the Figure 2 and Figure 4 characterization
kernels against their scalar oracles — useful for tracking regressions
in the simulation infrastructure itself.  The production kernels read
a columnar ``Trace``, the oracles its records, as in the program.
"""

import pytest

from repro.core.config import baseline_config, bitslice_config
from repro.emulator.machine import Machine
from repro.emulator.trace import Trace
from repro.memsys.hierarchy import L1D_CONFIG
from repro.timing.simulator import simulate
from repro.workloads import get_workload

N = 20_000


@pytest.fixture(scope="module")
def bzip_trace():
    machine = Machine(get_workload("bzip").build(iters=1))
    return Trace.from_records(machine.trace(N))


@pytest.fixture(scope="module")
def bzip_records(bzip_trace):
    return tuple(bzip_trace)


def test_emulator_throughput(benchmark):
    program = get_workload("bzip").build(iters=1)

    def run():
        machine = Machine(program)
        machine.run(N)
        return machine.instret

    executed = benchmark(run)
    assert executed == N


def test_timing_simulator_throughput_ideal(benchmark, bzip_trace):
    stats = benchmark(lambda: simulate(baseline_config(), bzip_trace))
    assert stats.instructions == N


def test_timing_simulator_throughput_bitslice4(benchmark, bzip_trace):
    stats = benchmark(lambda: simulate(bitslice_config(4), bzip_trace))
    assert stats.instructions == N


def test_lsq_characterization_scalar(benchmark, bzip_records):
    from repro.characterization.lsq_char import characterize_lsq

    result = benchmark(lambda: characterize_lsq(bzip_records))
    assert result.loads > 0


def test_lsq_characterization_vectorized(benchmark, bzip_trace):
    """The whole-trace kernel must match the scalar oracle above
    (asserted in tests/test_vectorized.py); this pair times both."""
    from repro.characterization.vectorized import characterize_lsq_fast

    result = benchmark(lambda: characterize_lsq_fast(bzip_trace))
    assert result.loads > 0


def test_tag_characterization_scalar(benchmark, bzip_records):
    from repro.characterization.tag_char import characterize_tags

    result = benchmark(lambda: characterize_tags(bzip_records, L1D_CONFIG))
    assert result.accesses > 0


def test_tag_characterization_vectorized(benchmark, bzip_trace):
    """Figure 4's kernel against the oracle above, on the Table 2 L1D."""
    from repro.characterization.vectorized import characterize_tags_fast

    result = benchmark(lambda: characterize_tags_fast(bzip_trace, L1D_CONFIG))
    assert result.accesses > 0
