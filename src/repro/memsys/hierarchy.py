"""Cache hierarchy: L1I, L1D, unified L2, main memory (paper Table 2).

The hierarchy returns access latencies for the timing simulator (the
simulator's :class:`~repro.timing.stats.SimStats` counts the hits and
misses).  Latencies are additive down the hierarchy, with the L1
latency configurable because the slice-by-4 machine uses a 2-cycle L1D
(paper §7.1).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.memsys.cache import CacheConfig, SetAssociativeCache

#: Table 2 geometries.
L1I_CONFIG = CacheConfig(size=64 * 1024, assoc=2, line_size=64, name="L1I")
L1D_CONFIG = CacheConfig(size=64 * 1024, assoc=4, line_size=64, name="L1D")
L2_CONFIG = CacheConfig(size=1024 * 1024, assoc=4, line_size=64, name="L2")


@dataclass(frozen=True)
class AccessResult:
    """Outcome of one hierarchy access."""

    latency: int
    l1_hit: bool
    l2_hit: bool


class MemoryHierarchy:
    """Two cache levels over a fixed-latency main memory."""

    def __init__(
        self,
        l1i: CacheConfig = L1I_CONFIG,
        l1d: CacheConfig = L1D_CONFIG,
        l2: CacheConfig = L2_CONFIG,
        l1_latency: int = 1,
        l2_latency: int = 6,
        memory_latency: int = 100,
    ) -> None:
        self.l1i = SetAssociativeCache(l1i)
        self.l1d = SetAssociativeCache(l1d)
        self.l2 = SetAssociativeCache(l2)
        self.l1_latency = l1_latency
        self.l2_latency = l2_latency
        self.memory_latency = memory_latency
        self._warm_iline = -1
        self._i_off = self.l1i.config.offset_bits

    def _access(self, l1: SetAssociativeCache, addr: int) -> AccessResult:
        if l1.access(addr):
            return AccessResult(self.l1_latency, True, True)
        if self.l2.access(addr):
            return AccessResult(self.l1_latency + self.l2_latency, False, True)
        return AccessResult(self.l1_latency + self.l2_latency + self.memory_latency, False, False)

    def access_instruction(self, addr: int) -> AccessResult:
        """Instruction fetch through L1I → L2 → memory."""
        return self._access(self.l1i, addr)

    def access_data(self, addr: int) -> AccessResult:
        """Load/store through L1D → L2 → memory."""
        return self._access(self.l1d, addr)

    # Functional-warming entry points: same replacement-state effects as
    # the access_* methods, but no AccessResult construction — these sit
    # in the statistical-sampling fast-forward hot loop, where latency
    # is never consumed and object allocation would dominate the cost.

    def warm_data(self, addr: int) -> None:
        """Touch *addr* through L1D → L2 without reporting a latency."""
        if not self.l1d.access(addr):
            self.l2.access(addr)

    def warm_instruction(self, addr: int) -> None:
        """Touch the I-side line of *addr*, deduplicating repeats.

        The fetch model accesses the L1I once per fetch-line
        *transition*, not per instruction; tracking the last warmed
        line here reproduces that stream across compiled-block
        boundaries.
        """
        line = addr >> self._i_off
        if line == self._warm_iline:
            return
        self._warm_iline = line
        if not self.l1i.access(addr):
            self.l2.access(addr)


def Table2Hierarchy(l1_latency: int = 1) -> MemoryHierarchy:
    """The paper's Table 2 hierarchy, with a configurable L1 latency."""
    return MemoryHierarchy(l1_latency=l1_latency)
