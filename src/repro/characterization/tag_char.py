"""Figure 4: partial tag matching characterization.

For every L1 data-cache access, tag bits are compared serially from the
first tag bit upward against the resident tags of the indexed set, and
the outcome is classified per the Figure 4 legend at every partial
width.  The study sweeps cache geometry the way the paper does: two
sizes (64KB/64B-line and 8KB/32B-line) at three associativities
(2/4/8-way).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.memsys.cache import CacheConfig, SetAssociativeCache
from repro.memsys.partial_tag import PartialTagOutcome, classify_partial_tag


@dataclass
class TagCharacterization:
    """Per-bit outcome counts for one (benchmark, geometry) pair."""

    benchmark: str = ""
    config: CacheConfig | None = None
    accesses: int = 0
    #: counts[bits_used][outcome] for bits_used in 1..tag_bits.
    counts: dict[int, dict[PartialTagOutcome, int]] = field(default_factory=dict)

    def fraction(self, bits: int, outcome: PartialTagOutcome) -> float:
        """One bar segment of Figure 4."""
        if not self.accesses:
            return 0.0
        return self.counts[bits].get(outcome, 0) / self.accesses

    @property
    def hit_rate(self) -> float:
        """Full-tag hit rate: the SINGLE_HIT fraction at full width."""
        full = self.config.tag_bits
        return self.fraction(full, PartialTagOutcome.SINGLE_HIT)


def characterize_tags(
    trace,
    config: CacheConfig,
    benchmark: str = "",
    bits: tuple[int, ...] | None = None,
    warmup: int = 0,
) -> TagCharacterization:
    """Run the Figure 4 study over the data references of *trace*.

    The first *warmup* instructions update the cache without being
    classified (cold-start control).
    """
    tag_width = config.tag_bits
    sample_bits = tuple(range(1, tag_width + 1)) if bits is None else bits
    cache = SetAssociativeCache(config)
    result = TagCharacterization(benchmark=benchmark, config=config)
    result.counts = {b: {} for b in sample_bits}
    seen = 0
    for record in trace:
        seen += 1
        if record.mem_addr < 0:
            continue
        addr = record.mem_addr
        if seen <= warmup:
            cache.access(addr)
            continue
        _, full_tag = config.split(addr)
        resident = cache.set_tags(addr)
        result.accesses += 1
        for b in sample_bits:
            outcome = classify_partial_tag(full_tag, resident, b, tag_width)
            bucket = result.counts[b]
            bucket[outcome] = bucket.get(outcome, 0) + 1
        cache.access(addr)
    return result


#: The two geometries of Figure 4 at each paper associativity.
FIGURE4_GEOMETRIES: tuple[tuple[str, int, int], ...] = (
    ("64KB, 64B lines", 64 * 1024, 64),
    ("8KB, 32B lines", 8 * 1024, 32),
)
FIGURE4_ASSOCIATIVITIES: tuple[int, ...] = (2, 4, 8)


def figure4_configs() -> list[CacheConfig]:
    """The six cache geometries plotted in Figure 4."""
    configs = []
    for label, size, line in FIGURE4_GEOMETRIES:
        for assoc in FIGURE4_ASSOCIATIVITIES:
            configs.append(CacheConfig(size=size, assoc=assoc, line_size=line, name=f"{label}, {assoc}-way"))
    return configs
