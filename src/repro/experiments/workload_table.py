"""Workload-characteristics table (suite-validation report).

Not a paper artifact per se, but the data behind our DESIGN.md §2
substitution argument: for each benchmark, the dynamic properties that
determine how the paper's techniques behave — instruction mix,
dependence tightness, working-set size, and branch behaviour.  Shipped
as an experiment so the suite's character is regenerable and asserted
in the benches.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.emulator.analysis import TraceProfile, profile_trace
from repro.experiments.ascii_plot import render_table
from repro.experiments.runner import DEFAULT_INSTRUCTIONS, collect_trace
from repro.workloads import BENCHMARK_NAMES


@dataclass
class WorkloadTableResult:
    profiles: dict[str, TraceProfile]

    def rows(self):
        out = []
        for name, p in self.profiles.items():
            out.append(
                (
                    name,
                    p.load_fraction,
                    p.store_fraction,
                    p.branch_fraction,
                    p.taken_rate,
                    p.short_dependence_fraction(2),
                    p.data_working_set,
                )
            )
        return out

    def render(self) -> str:
        return render_table(
            ["Benchmark", "loads", "stores", "branches", "taken", "dep<=2", "wset(KB)"],
            [
                (
                    name,
                    f"{p.load_fraction:.1%}",
                    f"{p.store_fraction:.1%}",
                    f"{p.branch_fraction:.1%}",
                    f"{p.taken_rate:.0%}",
                    f"{p.short_dependence_fraction(2):.1%}",
                    p.data_working_set // 1024,
                )
                for name, p in self.profiles.items()
            ],
            title="Workload characteristics (steady state)",
        )


def run(
    benchmarks: tuple[str, ...] = BENCHMARK_NAMES,
    instructions: int = DEFAULT_INSTRUCTIONS,
    profile: str = "ref",
) -> WorkloadTableResult:
    """Profile every benchmark's steady-state trace."""
    profiles = {}
    for name in benchmarks:
        profiles[name] = profile_trace(collect_trace(name, instructions, profile=profile))
    return WorkloadTableResult(profiles=profiles)
