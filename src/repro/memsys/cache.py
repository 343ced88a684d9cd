"""Set-associative cache model with LRU replacement and MRU tracking.

The model tracks tags only (data values live in the emulator's memory);
that is sufficient for hit/miss timing, partial tag matching, and MRU
way prediction.  Recency is kept as an explicit per-set ordering so both
LRU (replacement) and MRU (way prediction, paper §7) fall out of the
same state.
"""

from __future__ import annotations

from dataclasses import dataclass


def _is_pow2(n: int) -> bool:
    return n > 0 and (n & (n - 1)) == 0


@dataclass(frozen=True)
class CacheConfig:
    """Geometry of one cache level.

    Attributes:
        size: total bytes.
        assoc: ways per set.
        line_size: bytes per line.
        name: label for stats output.
    """

    size: int
    assoc: int
    line_size: int
    name: str = "cache"

    def __post_init__(self) -> None:
        if not (_is_pow2(self.size) and _is_pow2(self.assoc) and _is_pow2(self.line_size)):
            raise ValueError("cache size, associativity and line size must be powers of two")
        if self.size < self.assoc * self.line_size:
            raise ValueError("cache smaller than one set")

    @property
    def num_sets(self) -> int:
        return self.size // (self.assoc * self.line_size)

    @property
    def offset_bits(self) -> int:
        return self.line_size.bit_length() - 1

    @property
    def index_bits(self) -> int:
        return self.num_sets.bit_length() - 1

    @property
    def tag_shift(self) -> int:
        """Bit position where the tag field starts."""
        return self.offset_bits + self.index_bits

    @property
    def tag_bits(self) -> int:
        """Width of the tag field of a 32-bit address."""
        return 32 - self.tag_shift

    def split(self, addr: int) -> tuple[int, int]:
        """Decompose a 32-bit address into ``(set_index, tag)``."""
        return (addr >> self.offset_bits) & (self.num_sets - 1), addr >> self.tag_shift


class SetAssociativeCache:
    """Tag store with LRU replacement.

    Each set is a list of tags ordered most-recently-used first, so
    ``set[0]`` is the MRU way and ``set[-1]`` the LRU victim.
    """

    def __init__(self, config: CacheConfig) -> None:
        self.config = config
        self._sets: list[list[int]] = [[] for _ in range(config.num_sets)]
        # Geometry is immutable; precompute the address-split constants
        # once — the dataclass properties recompute bit widths on every
        # call, and access() sits on the hot path of both the timing
        # model and the sampling fast-forward.
        self._off = config.offset_bits
        self._mask = config.num_sets - 1
        self._tshift = config.tag_shift
        self._assoc = config.assoc

    def probe(self, addr: int) -> bool:
        """Non-destructive lookup: True when *addr* hits."""
        return addr >> self._tshift in self._sets[(addr >> self._off) & self._mask]

    def access(self, addr: int) -> bool:
        """Reference *addr*: returns hit/miss and updates LRU + contents.

        A miss allocates the line, evicting the LRU way when the set is
        full (write-allocate; since only tags are modeled, loads and
        stores are handled identically).  The MRU way is checked before
        the general scan — most references hit it, and the scan plus
        reorder cost only matters off that fast path.  A hit on the MRU
        way changes no state at all.
        """
        ways = self._sets[(addr >> self._off) & self._mask]
        tag = addr >> self._tshift
        if ways:
            if ways[0] == tag:
                return True
            try:
                pos = ways.index(tag, 1)
            except ValueError:
                pass
            else:
                ways.insert(0, ways.pop(pos))
                return True
        if len(ways) >= self._assoc:
            ways.pop()
        ways.insert(0, tag)
        return False

    def is_mru(self, addr: int) -> bool:
        """True when *addr*'s line is its set's MRU way, so an
        :meth:`access` would change nothing.  The warm variant of the
        block compiler inlines this test before each data access
        (:meth:`repro.emulator.blocks.BlockEngine._codegen`)."""
        ways = self._sets[(addr >> self._off) & self._mask]
        return bool(ways) and ways[0] == addr >> self._tshift

    def resolving_width(self, addr: int) -> int:
        """Narrowest partial tag that settles a lookup of *addr* (§5.2).

        :func:`~repro.memsys.partial_tag.partial_tag_lookup` compares the
        low ``w`` tag bits against the set's ways, MRU first.  On a hit
        the first partial match is the hit way iff ``w`` is at least the
        returned width; on a miss no way matches iff ``w`` is.  The
        width is one more than the longest low-order agreement between
        *addr*'s tag and a way ahead of the hit way (any way on a miss),
        or 0 when there is no such way, so one number stands for the
        lookup at every width.
        """
        tag = addr >> self._tshift
        width = 0
        for way in self._sets[(addr >> self._off) & self._mask]:
            if way == tag:
                break
            diff = way ^ tag
            agree = (diff & -diff).bit_length()  # trailing equal bits + 1
            if agree > width:
                width = agree
        return width

    def set_tags(self, addr: int) -> list[int]:
        """Tags resident in the set *addr* maps to, MRU-first (a copy)."""
        return list(self._sets[(addr >> self._off) & self._mask])

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        c = self.config
        return f"<{c.name}: {c.size}B {c.assoc}-way {c.line_size}B lines>"
