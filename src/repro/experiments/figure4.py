"""Figure 4: partial tag matching characterization.

Regenerates the paper's six panels: two benchmarks (mcf on a 64KB/64B
cache, twolf on an 8KB/32B cache) at associativities 2, 4 and 8, each
a stack of the four partial-tag outcomes versus tag bits compared.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.characterization.tag_char import TagCharacterization
from repro.characterization.vectorized import characterize_tags_fast
from repro.experiments.ascii_plot import render_stack
from repro.experiments.runner import DEFAULT_INSTRUCTIONS, DEFAULT_WARMUP, collect_trace
from repro.memsys.cache import CacheConfig
from repro.memsys.partial_tag import PartialTagOutcome

#: The paper's panel pairings: benchmark → (size, line size).
FIGURE4_PANELS: tuple[tuple[str, int, int], ...] = (
    ("mcf", 64 * 1024, 64),
    ("twolf", 8 * 1024, 32),
)
ASSOCIATIVITIES: tuple[int, ...] = (2, 4, 8)

CATEGORY_ORDER: tuple[PartialTagOutcome, ...] = (
    PartialTagOutcome.MULTI,
    PartialTagOutcome.SINGLE_MISS,
    PartialTagOutcome.ZERO,
    PartialTagOutcome.SINGLE_HIT,
)


@dataclass
class Figure4Result:
    #: (benchmark, assoc) → characterization.
    panels: dict[tuple[str, int], TagCharacterization]

    def rows(self):
        out = []
        for (name, assoc), char in self.panels.items():
            for bits in sorted(char.counts):
                for cat in CATEGORY_ORDER:
                    out.append((name, assoc, bits, cat.value, char.fraction(bits, cat)))
        return out

    def render(self) -> str:
        parts = []
        for (name, assoc), char in self.panels.items():
            cfg = char.config
            sample = sorted(char.counts)
            per_x = {b: [char.fraction(b, c) for c in CATEGORY_ORDER] for b in sample}
            parts.append(
                render_stack(
                    f"Figure 4 — {name}, {cfg.size // 1024}KB {cfg.line_size}B lines, "
                    f"{assoc}-way ({char.accesses} accesses, hit rate {char.hit_rate:.1%})",
                    [c.value for c in CATEGORY_ORDER],
                    per_x,
                )
            )
        return "\n\n".join(parts)


def run(
    instructions: int = DEFAULT_INSTRUCTIONS,
    panels: tuple[tuple[str, int, int], ...] = FIGURE4_PANELS,
    associativities: tuple[int, ...] = ASSOCIATIVITIES,
    max_bits: int = 12,
    warmup: int = DEFAULT_WARMUP,
    profile: str = "ref",
) -> Figure4Result:
    """Regenerate Figure 4.

    *max_bits* caps the sampled tag widths (plus the full width, which
    is always included as the conventional comparison).
    """
    results: dict[tuple[str, int], TagCharacterization] = {}
    for name, size, line in panels:
        trace = collect_trace(name, instructions + warmup, profile=profile)
        for assoc in associativities:
            config = CacheConfig(size=size, assoc=assoc, line_size=line, name=f"{name}-{assoc}w")
            bits = tuple(range(1, min(max_bits, config.tag_bits) + 1)) + (config.tag_bits,)
            bits = tuple(sorted(set(bits)))
            results[(name, assoc)] = characterize_tags_fast(
                trace, config, benchmark=name, bits=bits, warmup=warmup
            )
    return Figure4Result(panels=results)
