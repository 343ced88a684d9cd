"""Figure 2: early load–store disambiguation characterization.

Regenerates the two Figure 2 panels (bzip and gcc in the paper) plus
any other benchmark on request: stacked category fractions as a
function of the highest address bit compared, for a 32-entry LSQ.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.characterization.lsq_char import LSQCharacterization
from repro.characterization.vectorized import characterize_lsq_fast
from repro.experiments.ascii_plot import render_stack
from repro.experiments.runner import DEFAULT_INSTRUCTIONS, collect_trace
from repro.lsq.disambiguation import LSDCategory

#: The benchmarks shown in the paper's Figure 2.
FIGURE2_BENCHMARKS: tuple[str, ...] = ("bzip", "gcc")

#: Bit positions sampled for the bars (full resolution is 2..31).
DEFAULT_BITS: tuple[int, ...] = (2, 3, 4, 5, 6, 7, 8, 9, 10, 12, 15, 19, 23, 27, 31)

#: Legend order, matching the paper's stacking.
CATEGORY_ORDER: tuple[LSDCategory, ...] = (
    LSDCategory.MULTI_DIFF_ADDR,
    LSDCategory.MULTI_SAME_ADDR,
    LSDCategory.SINGLE_MATCH_MULT_STORES,
    LSDCategory.SINGLE_MATCH_ONE_STORE,
    LSDCategory.SINGLE_NONMATCH,
    LSDCategory.ZERO_MATCH,
    LSDCategory.NO_STORES,
)


@dataclass
class Figure2Result:
    panels: dict[str, LSQCharacterization]
    bits: tuple[int, ...]

    def rows(self):
        """(benchmark, bit, category, fraction) tuples."""
        out = []
        for name, char in self.panels.items():
            for b in self.bits:
                for cat in CATEGORY_ORDER:
                    out.append((name, b, cat.value, char.fraction(b, cat)))
        return out

    def resolved_by(self, benchmark: str, bit: int) -> float:
        """Fraction of loads decisively disambiguated by *bit* — the
        paper's claim is ~100% by bit 10 (9 bits compared)."""
        return self.panels[benchmark].resolved_fraction(bit)

    def render(self) -> str:
        parts = []
        for name, char in self.panels.items():
            per_x = {b: [char.fraction(b, c) for c in CATEGORY_ORDER] for b in self.bits}
            parts.append(
                render_stack(
                    f"Figure 2 — {name} ({char.loads} loads, 32-entry LSQ)",
                    [c.value for c in CATEGORY_ORDER],
                    per_x,
                )
            )
        return "\n\n".join(parts)


def run(
    benchmarks: tuple[str, ...] = FIGURE2_BENCHMARKS,
    instructions: int = DEFAULT_INSTRUCTIONS,
    bits: tuple[int, ...] = DEFAULT_BITS,
    lsq_size: int = 32,
    profile: str = "ref",
) -> Figure2Result:
    """Regenerate Figure 2."""
    panels = {}
    for name in benchmarks:
        trace = collect_trace(name, instructions, profile=profile)
        panels[name] = characterize_lsq_fast(trace, benchmark=name, lsq_size=lsq_size, bits=bits)
    return Figure2Result(panels=panels, bits=bits)
