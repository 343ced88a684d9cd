"""Set-associative cache: geometry, LRU, MRU ordering."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.memsys.cache import CacheConfig, SetAssociativeCache


def small_cache(assoc=2, sets=4, line=16):
    return SetAssociativeCache(CacheConfig(size=assoc * sets * line, assoc=assoc, line_size=line))


def test_config_geometry():
    cfg = CacheConfig(size=64 * 1024, assoc=4, line_size=64)
    assert cfg.num_sets == 256
    assert cfg.offset_bits == 6
    assert cfg.index_bits == 8
    assert cfg.tag_shift == 14
    assert cfg.tag_bits == 18


def test_config_split():
    cfg = CacheConfig(size=64 * 1024, assoc=4, line_size=64)
    addr = 0x12345678
    index, tag = cfg.split(addr)
    assert index == (addr >> 6) & 0xFF
    assert tag == addr >> 14


@pytest.mark.parametrize("size,assoc,line", [(100, 2, 16), (64, 3, 16), (64, 2, 10)])
def test_non_power_of_two_rejected(size, assoc, line):
    with pytest.raises(ValueError):
        CacheConfig(size=size, assoc=assoc, line_size=line)


def test_cache_smaller_than_set_rejected():
    with pytest.raises(ValueError):
        CacheConfig(size=64, assoc=4, line_size=64)


def test_cold_miss_then_hit():
    cache = small_cache()
    assert cache.access(0x1000) is False
    assert cache.access(0x1000) is True
    assert cache.access(0x1004) is True  # same line
    assert cache.set_tags(0x1000) == [0x1000 >> cache.config.tag_shift]


def test_lru_eviction():
    cache = small_cache(assoc=2, sets=1, line=16)
    cache.access(0x000)  # A
    cache.access(0x010)  # B  (set has A,B)
    cache.access(0x000)  # touch A -> LRU is B
    cache.access(0x020)  # C evicts B
    assert cache.probe(0x000)
    assert not cache.probe(0x010)
    assert cache.probe(0x020)


def test_set_tags_mru_first():
    cache = small_cache(assoc=4, sets=1, line=16)
    for addr in (0x00, 0x10, 0x20):
        cache.access(addr)
    cache.access(0x10)
    tags = cache.set_tags(0x00)
    assert tags[0] == 0x10 >> 4  # MRU
    assert set(tags) == {0, 1, 2}


def test_probe_does_not_mutate():
    cache = small_cache()
    cache.probe(0x40)
    assert cache.set_tags(0x40) == []
    assert not cache.probe(0x40)


def test_mru_hit_changes_no_state():
    """A hit on the MRU way leaves every set as it was; a hit on another
    way moves that way to the front."""
    cache = small_cache(assoc=4, sets=1, line=16)
    for addr in (0x00, 0x10, 0x20):
        cache.access(addr)
    before = [list(ways) for ways in cache._sets]
    assert cache.is_mru(0x20) and cache.access(0x20) is True
    assert cache._sets == before
    assert not cache.is_mru(0x00) and cache.access(0x00) is True
    assert cache.set_tags(0) == [0, 2, 1]


def test_associativity_respected():
    cache = small_cache(assoc=2, sets=1, line=16)
    cache.access(0x00)
    cache.access(0x10)
    cache.access(0x20)
    assert len(cache.set_tags(0)) == 2


@given(st.lists(st.integers(0, 0xFFFF), min_size=1, max_size=200))
def test_rereference_always_hits(addrs):
    """Immediately re-accessing any address must hit."""
    cache = small_cache(assoc=2, sets=8, line=16)
    for a in addrs:
        cache.access(a)
        assert cache.access(a) is True


@given(st.lists(st.integers(0, 0xFFFF), max_size=200))
def test_set_never_overflows(addrs):
    cache = small_cache(assoc=2, sets=8, line=16)
    for a in addrs:
        cache.access(a)
    for s in cache._sets:
        assert len(s) <= 2
        assert len(set(s)) == len(s)  # no duplicate tags in a set
