"""Figure 12: speed-up decomposition over simple pipelining.

Derived from the Figure 11 sweep: per benchmark and slice count, the
incremental IPC speed-up contributed by each technique as it is added
(the stacking order matters, as the paper notes — later techniques
benefit from earlier ones).  Also reports the paper's aggregate: the
three *new* techniques plus out-of-order slices contribute an
additional ~8% (slice-by-2) / ~13% (slice-by-4) over partial operand
bypassing alone.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.config import CUMULATIVE_TECHNIQUES
from repro.experiments import figure11
from repro.experiments.ascii_plot import render_table
from repro.experiments.runner import DEFAULT_INSTRUCTIONS
from repro.workloads import BENCHMARK_NAMES


@dataclass
class Figure12Result:
    base: figure11.Figure11Result

    def increments(self, benchmark: str, num_slices: int) -> list[tuple[str, float]]:
        """(technique, incremental speedup over simple pipelining)."""
        stats_list = self.base.ladder[(benchmark, num_slices)]
        simple = stats_list[0].ipc
        out = []
        prev = simple
        for label, st in zip(CUMULATIVE_TECHNIQUES[1:], stats_list[1:]):
            out.append((label, (st.ipc - prev) / simple))
            prev = st.ipc
        return out

    def total_speedup(self, benchmark: str, num_slices: int) -> float:
        stats_list = self.base.ladder[(benchmark, num_slices)]
        return stats_list[-1].ipc / stats_list[0].ipc - 1.0

    def mean_new_technique_contribution(self, num_slices: int) -> float:
        """Mean extra speedup beyond partial operand bypassing (the
        paper's "additional 8% / 13%")."""
        vals = []
        for name in self.base.ideal:
            stats_list = self.base.ladder[(name, num_slices)]
            simple, pob, full = stats_list[0].ipc, stats_list[1].ipc, stats_list[-1].ipc
            vals.append((full - pob) / simple)
        return sum(vals) / len(vals)

    def rows(self):
        out = []
        for s in self.base.slice_counts:
            for name in self.base.ideal:
                for label, inc in self.increments(name, s):
                    out.append((name, s, label, inc))
                out.append((name, s, "total", self.total_speedup(name, s)))
        return out

    def render(self) -> str:
        parts = []
        techniques = list(CUMULATIVE_TECHNIQUES[1:])
        for s in self.base.slice_counts:
            rows = []
            for name in self.base.ideal:
                incs = dict(self.increments(name, s))
                rows.append(
                    [name]
                    + [f"{incs[t]:+.1%}" for t in techniques]
                    + [f"{self.total_speedup(name, s):+.1%}"]
                )
            parts.append(
                render_table(
                    ["Benchmark"] + [t.replace(" ", "_") for t in techniques] + ["total"],
                    rows,
                    title=f"Figure 12 — speed-up over simple pipelining, slice by {s}",
                )
            )
            parts.append(
                f"  mean contribution of new techniques beyond bypassing: "
                f"{self.mean_new_technique_contribution(s):+.1%}"
            )
        return "\n".join(parts)


def run(
    benchmarks: tuple[str, ...] = BENCHMARK_NAMES,
    instructions: int = DEFAULT_INSTRUCTIONS,
    slice_counts: tuple[int, ...] = (2, 4),
    base: figure11.Figure11Result | None = None,
) -> Figure12Result:
    """Regenerate Figure 12 (reusing a Figure 11 sweep when given)."""
    if base is None:
        base = figure11.run(benchmarks, instructions, slice_counts)
    return Figure12Result(base=base)
