"""Figure 11: IPC of the bit-sliced microarchitecture.

For each benchmark and each slice count (2, 4): the ideal machine
(non-pipelined EX), simple pipelining, and the cumulative ladder of
partial-operand techniques.  The paper's headline numbers derived here:

* slice-by-2 with all techniques lands within ~1% of ideal IPC;
* that is a ~16% average speedup over simple pipelining;
* slice-by-4 recovers much of the (larger) loss, a ~44% speedup.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.config import CUMULATIVE_TECHNIQUES, baseline_config, cumulative_configs
from repro.experiments.ascii_plot import hbar_chart, render_table
from repro.experiments.runner import DEFAULT_INSTRUCTIONS, DEFAULT_WARMUP, collect_trace
from repro.timing.simulator import simulate_configs
from repro.timing.stats import SimStats
from repro.workloads import BENCHMARK_NAMES


@dataclass
class Figure11Result:
    #: benchmark → ideal-machine stats.
    ideal: dict[str, SimStats] = field(default_factory=dict)
    #: (benchmark, num_slices) → stats per ladder step, in
    #: CUMULATIVE_TECHNIQUES order.
    ladder: dict[tuple[str, int], list[SimStats]] = field(default_factory=dict)
    slice_counts: tuple[int, ...] = (2, 4)

    def ipc(self, benchmark: str, num_slices: int, step: int = -1) -> float:
        """IPC at a ladder step (default: all techniques enabled)."""
        return self.ladder[(benchmark, num_slices)][step].ipc

    def ideal_ipc(self, benchmark: str) -> float:
        return self.ideal[benchmark].ipc

    def simple_ipc(self, benchmark: str, num_slices: int) -> float:
        return self.ladder[(benchmark, num_slices)][0].ipc

    def mean_relative_to_ideal(self, num_slices: int) -> float:
        """Mean of (full bit-slice IPC / ideal IPC) across benchmarks."""
        ratios = [
            self.ipc(b, num_slices) / self.ideal_ipc(b)
            for b in self.ideal
        ]
        return sum(ratios) / len(ratios)

    def mean_speedup_over_simple(self, num_slices: int) -> float:
        """Mean of (full bit-slice IPC / simple-pipelining IPC) - 1."""
        ratios = [
            self.ipc(b, num_slices) / self.simple_ipc(b, num_slices)
            for b in self.ideal
        ]
        return sum(ratios) / len(ratios) - 1.0

    def rows(self):
        out = []
        for (name, s), stats_list in self.ladder.items():
            for label, st in zip(CUMULATIVE_TECHNIQUES, stats_list):
                out.append((name, s, label, st.ipc))
            out.append((name, s, "ideal", self.ideal[name].ipc))
        return out

    def render(self) -> str:
        parts = []
        for s in self.slice_counts:
            headers = ["Benchmark", "ideal"] + [t.replace(" ", "_") for t in CUMULATIVE_TECHNIQUES]
            rows = []
            for name in self.ideal:
                stats_list = self.ladder[(name, s)]
                rows.append([name, f"{self.ideal[name].ipc:.3f}"] + [f"{st.ipc:.3f}" for st in stats_list])
            parts.append(
                render_table(headers, rows, title=f"Figure 11 — IPC, slice by {s} (cumulative techniques)")
            )
            parts.append(
                f"  mean bit-slice/ideal: {self.mean_relative_to_ideal(s):.1%};"
                f"  mean speedup over simple pipelining: {self.mean_speedup_over_simple(s):+.1%}"
            )
        return "\n".join(parts)

    def render_chart(self) -> str:
        """Figure 11 as bar charts: full bit-slice IPC per benchmark,
        with the ideal machine drawn as the paper's thin tick bar."""
        parts = []
        for s in self.slice_counts:
            rows = [(name, self.ipc(name, s)) for name in self.ideal]
            ticks = {name: self.ideal_ipc(name) for name in self.ideal}
            parts.append(f"Figure 11 chart — slice by {s} (| = ideal machine)")
            parts.append(hbar_chart(rows, ticks=ticks))
        return "\n".join(parts)


def run(
    benchmarks: tuple[str, ...] = BENCHMARK_NAMES,
    instructions: int = DEFAULT_INSTRUCTIONS,
    slice_counts: tuple[int, ...] = (2, 4),
    warmup: int = DEFAULT_WARMUP,
    profile: str = "ref",
) -> Figure11Result:
    """Regenerate Figure 11 (and the data behind Figure 12)."""
    result = Figure11Result(slice_counts=slice_counts)
    ladders = {s: [cfg for _, cfg in cumulative_configs(s)] for s in slice_counts}
    configs = [baseline_config()] + [cfg for s in slice_counts for cfg in ladders[s]]
    for name in benchmarks:
        trace = collect_trace(name, instructions + warmup, profile=profile)
        stats = simulate_configs(configs, trace, warmup=warmup)
        result.ideal[name] = stats[0]
        at = 1
        for s in slice_counts:
            result.ladder[(name, s)] = stats[at:at + len(ladders[s])]
            at += len(ladders[s])
    return result
