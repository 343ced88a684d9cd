"""Bandwidth and structural-resource trackers for the timestamp model.

The simulator processes instructions in program order, so reservation
times are almost monotonic; the pool keeps a small dict of per-cycle
usage and prunes entries older than a horizon to bound memory.
"""

from __future__ import annotations


class BandwidthPool:
    """N slots per cycle (issue ports, commit ports, a slice pipe)."""

    __slots__ = ("width", "_used", "_floor")

    def __init__(self, width: int) -> None:
        if width <= 0:
            raise ValueError("width must be positive")
        self.width = width
        self._used: dict[int, int] = {}
        self._floor = 0  # cycles below this are assumed full (pruned)

    def reserve(self, cycle: int) -> int:
        """Reserve a slot at the first cycle >= *cycle*; returns it."""
        # Nearly every request lands on the first cycle probed: one
        # compare and one dict read, looping only past full cycles.
        floor = self._floor
        c = cycle if cycle >= floor else floor
        used = self._used
        n = used.get(c, 0)
        while n >= self.width:
            c += 1
            n = used.get(c, 0)
        used[c] = n + 1
        if len(used) > 4096:
            self._prune(c - 512)
        return c

    def _prune(self, horizon: int) -> None:
        self._used = {c: n for c, n in self._used.items() if c >= horizon}
        self._floor = max(self._floor, horizon)


class ExclusiveUnit:
    """A single non-pipelined unit (the integer mult/div unit)."""

    __slots__ = ("_free_at",)

    def __init__(self) -> None:
        self._free_at = 0

    def reserve(self, cycle: int, duration: int) -> int:
        """Occupy the unit for *duration* cycles starting at the first
        free cycle >= *cycle*; returns the actual start."""
        start = max(cycle, self._free_at)
        self._free_at = start + duration
        return start
