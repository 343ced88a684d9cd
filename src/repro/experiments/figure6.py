"""Figure 6: early branch misprediction detection.

Regenerates the cumulative-detection curves (one per benchmark) and
the §5.3 aggregate statistics: the fraction of dynamic branches and of
mispredictions that are beq/bne, and the average detection fraction
after 1 and 8 bits.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.characterization.branch_char import (
    BranchCharacterization,
    average_detected_fraction,
    characterize_branches,
)
from repro.experiments.ascii_plot import line_plot, render_series, render_table
from repro.experiments.runner import DEFAULT_INSTRUCTIONS, DEFAULT_WARMUP, collect_trace
from repro.workloads import BENCHMARK_NAMES

#: Cumulative bit positions plotted (Figure 6's x axis).
DEFAULT_BITS: tuple[int, ...] = (1, 2, 4, 8, 12, 16, 20, 24, 28, 31, 32)


@dataclass
class Figure6Result:
    curves: dict[str, BranchCharacterization]
    bits: tuple[int, ...]

    def rows(self):
        return [
            (name, b, char.detected_fraction(b))
            for name, char in self.curves.items()
            for b in self.bits
        ]

    @property
    def mean_detected_at_8(self) -> float:
        """The paper's headline: average fraction of mispredictions
        detectable after examining 8 bits."""
        return average_detected_fraction(list(self.curves.values()), 8)

    @property
    def mean_detected_at_1(self) -> float:
        """Paper: 28% of mispredictions detectable from bit 0 alone."""
        return average_detected_fraction(list(self.curves.values()), 1)

    @property
    def mean_eq_branch_fraction(self) -> float:
        """Paper §5.3: beq/bne are 61% of dynamic branches on average."""
        vals = [c.eq_type_branch_fraction for c in self.curves.values() if c.branches]
        return sum(vals) / len(vals) if vals else 0.0

    @property
    def mean_eq_mispredict_fraction(self) -> float:
        """Paper §5.3: beq/bne take 48% of mispredictions on average."""
        vals = [c.eq_type_mispredict_fraction for c in self.curves.values() if c.mispredictions]
        return sum(vals) / len(vals) if vals else 0.0

    def render(self) -> str:
        parts = ["Figure 6 — % of mispredictions detected vs. bits used (cumulative from bit 0)"]
        for name, char in self.curves.items():
            parts.append(
                render_series(
                    f"{name:8s} (acc {char.accuracy:.1%}, {char.mispredictions} mp)",
                    [(b, char.detected_fraction(b)) for b in self.bits],
                    fmt="{:.2f}",
                )
            )
        parts.append(
            render_table(
                ["aggregate", "value"],
                [
                    ("mean detected @1 bit", f"{self.mean_detected_at_1:.1%}"),
                    ("mean detected @8 bits", f"{self.mean_detected_at_8:.1%}"),
                    ("beq/bne share of branches", f"{self.mean_eq_branch_fraction:.1%}"),
                    ("beq/bne share of mispredicts", f"{self.mean_eq_mispredict_fraction:.1%}"),
                ],
            )
        )
        return "\n".join(parts)

    def render_chart(self) -> str:
        """Figure 6 as a character-grid line plot (one series per
        benchmark, detection fraction vs. bits examined)."""
        series = {
            name: [(b, char.detected_fraction(b)) for b in self.bits]
            for name, char in self.curves.items()
            if char.mispredictions
        }
        return "Figure 6 chart — fraction of mispredictions detected\n" + line_plot(
            series, x_label="bits examined (cumulative from bit 0)"
        )


def run(
    benchmarks: tuple[str, ...] = BENCHMARK_NAMES,
    instructions: int = DEFAULT_INSTRUCTIONS,
    bits: tuple[int, ...] = DEFAULT_BITS,
    warmup: int = DEFAULT_WARMUP,
    profile: str = "ref",
) -> Figure6Result:
    """Regenerate Figure 6."""
    curves = {}
    for name in benchmarks:
        trace = collect_trace(name, instructions + warmup, profile=profile)
        curves[name] = characterize_branches(trace, benchmark=name, warmup=warmup)
    return Figure6Result(curves=curves, bits=bits)
