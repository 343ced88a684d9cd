"""Bandwidth pools and exclusive units."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.timing.resources import BandwidthPool, ExclusiveUnit


def test_pool_width_enforced():
    pool = BandwidthPool(2)
    assert pool.reserve(10) == 10
    assert pool.reserve(10) == 10
    assert pool.reserve(10) == 11  # third request spills to next cycle


def test_pool_is_monotone_under_increasing_requests():
    pool = BandwidthPool(1)
    cycles = [pool.reserve(c) for c in range(100)]
    assert cycles == sorted(cycles)


def test_pool_backfills_earlier_free_cycles():
    pool = BandwidthPool(1)
    pool.reserve(5)
    assert pool.reserve(3) == 3  # cycle 3 still free


def test_pool_rejects_bad_width():
    with pytest.raises(ValueError):
        BandwidthPool(0)


def test_pool_prunes_without_losing_recent_state():
    pool = BandwidthPool(1)
    for c in range(0, 10_000, 2):
        pool.reserve(c)
    # Still correct near the frontier.
    assert pool.reserve(9_998) == 9_999


def test_exclusive_unit_serializes():
    unit = ExclusiveUnit()
    assert unit.reserve(0, 10) == 0
    assert unit.reserve(5, 3) == 10  # busy until 10
    assert unit.reserve(50, 1) == 50


class _ProbingPool:
    """The pool's previous reserve (max() plus two dict probes per
    call), kept verbatim as the oracle for the one-probe version."""

    def __init__(self, width: int) -> None:
        self.width = width
        self._used: dict[int, int] = {}
        self._floor = 0

    def reserve(self, cycle: int) -> int:
        c = max(cycle, self._floor)
        used = self._used
        while used.get(c, 0) >= self.width:
            c += 1
        used[c] = used.get(c, 0) + 1
        if len(used) > 4096:
            self._prune(c - 512)
        return c

    def _prune(self, horizon: int) -> None:
        self._used = {c: n for c, n in self._used.items() if c >= horizon}
        self._floor = max(self._floor, horizon)


@given(
    seed=st.integers(0, 2**32 - 1),
    width=st.integers(1, 4),
    load=st.floats(0.5, 1.0),
    dip=st.integers(0, 3_000),
)
@settings(max_examples=20, deadline=None)
def test_reserve_matches_the_probing_oracle(seed, width, load, dip):
    """Near-monotone streams at up to full load, long enough to prune
    several times, with requests that fall below the floor; every
    return must agree."""
    rng = random.Random(seed)
    pool, oracle = BandwidthPool(width), _ProbingPool(width)
    advance = min(1.0, 1.0 / (width * load))  # requests per cycle = width * load
    frontier = below_floor = 0
    for _ in range(5_000 * width):
        if rng.random() < advance:
            frontier += 1
        roll = rng.random()
        if roll < 0.002:
            cycle = max(0, frontier - rng.randrange(dip + 600, dip + 1_200))
        elif roll < 0.3:
            cycle = max(0, frontier - rng.randrange(0, 8))
        else:
            cycle = frontier
        below_floor += cycle < pool._floor
        assert pool.reserve(cycle) == oracle.reserve(cycle)
        assert pool._floor == oracle._floor
    assert pool._floor > 0
    for cycle in (0, rng.randrange(pool._floor), pool._floor - 1, pool._floor):
        below_floor += cycle < pool._floor
        assert pool.reserve(cycle) == oracle.reserve(cycle)
    assert below_floor >= 3
    assert pool._used == oracle._used
