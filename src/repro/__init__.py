"""repro — reproduction of "Exploiting Partial Operand Knowledge"
(Mestan & Lipasti, ICPP 2003).

Top-level convenience surface; the subpackages are the real API:

* :mod:`repro.isa` — PISA-like ISA, assembler, disassembler
* :mod:`repro.emulator` — functional emulator and trace generation
* :mod:`repro.workloads` — the 11-benchmark synthetic suite
* :mod:`repro.memsys` — caches, partial tag matching, hierarchy
* :mod:`repro.branch` — gshare/BTB/RAS and early branch resolution
* :mod:`repro.lsq` — partial load–store disambiguation
* :mod:`repro.core` — bit slicing, dependence rules, configurations
* :mod:`repro.timing` — the out-of-order timing simulator
* :mod:`repro.characterization` — the Figure 2/4/6 studies
* :mod:`repro.experiments` — per-table/figure regeneration + CLI
"""

from repro.core.config import (
    Features,
    MachineConfig,
    baseline_config,
    bitslice_config,
    simple_pipeline_config,
)
from repro.emulator.machine import Machine
from repro.isa.assembler import Program, assemble
from repro.timing.simulator import TimingSimulator, simulate
from repro.workloads import BENCHMARK_NAMES, get_workload

__version__ = "1.0.0"

__all__ = [
    "BENCHMARK_NAMES",
    "Features",
    "Machine",
    "MachineConfig",
    "Program",
    "TimingSimulator",
    "__version__",
    "assemble",
    "baseline_config",
    "bitslice_config",
    "get_workload",
    "simple_pipeline_config",
    "simulate",
]
