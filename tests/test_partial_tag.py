"""Partial tag matching: classification soundness and MRU way prediction."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.memsys.cache import CacheConfig, SetAssociativeCache
from repro.memsys.partial_tag import (
    PartialTagOutcome,
    classify_partial_tag,
    partial_tag_lookup,
    tag_bits_available,
)

CFG = CacheConfig(size=64 * 1024, assoc=4, line_size=64)


def test_zero_match_is_definitive_miss():
    assert classify_partial_tag(0b1010, [0b0001, 0b0011], 1, 18) is PartialTagOutcome.ZERO


def test_single_hit_vs_single_miss():
    # One resident matches the low 2 bits; whether it is a hit depends
    # on the full tag.
    assert classify_partial_tag(0b0111, [0b0111], 2, 18) is PartialTagOutcome.SINGLE_HIT
    assert classify_partial_tag(0b0111, [0b1011], 2, 18) is PartialTagOutcome.SINGLE_MISS


def test_multi_match():
    assert classify_partial_tag(0b01, [0b0101, 0b1101], 2, 18) is PartialTagOutcome.MULTI


def test_bits_bounds_checked():
    with pytest.raises(ValueError):
        classify_partial_tag(0, [], 0, 18)
    with pytest.raises(ValueError):
        classify_partial_tag(0, [], 19, 18)


def test_full_width_classification_exact_examples():
    """With all tag bits, classification equals the true hit/miss outcome."""
    resident = [5, 9, 13]
    assert classify_partial_tag(9, resident, 18, 18) is PartialTagOutcome.SINGLE_HIT
    assert classify_partial_tag(7, resident, 18, 18) is PartialTagOutcome.ZERO


def test_lookup_zero_is_always_correct():
    cache = SetAssociativeCache(CFG)
    cache.access(0x0000_0040)  # resident tag 0 (low bit 0)
    probe = (1 << CFG.tag_shift) | 0x40  # same set, tag 1 (low bit 1)
    outcome, predicted, correct = partial_tag_lookup(cache, probe, 1)
    assert outcome is PartialTagOutcome.ZERO
    assert predicted is None
    assert correct  # the early miss signal is non-speculative


def test_lookup_predicts_mru_among_matches():
    cache = SetAssociativeCache(CFG)
    # Two lines in the same set whose tags share low bits.
    a = (0b1000 << CFG.tag_shift) | 0x40
    b = (0b0000 << CFG.tag_shift) | 0x40
    cache.access(a)
    cache.access(b)  # b is MRU
    outcome, predicted, correct = partial_tag_lookup(cache, a, 1)
    assert outcome is PartialTagOutcome.MULTI
    assert predicted == b >> CFG.tag_shift  # MRU picked
    assert not correct  # but the true line is a


def test_lookup_correct_when_unique_true_match():
    cache = SetAssociativeCache(CFG)
    addr = 0x1234_5678 & ~0x3F
    cache.access(addr)
    outcome, predicted, correct = partial_tag_lookup(cache, addr, 2)
    assert correct
    assert outcome in (PartialTagOutcome.SINGLE_HIT, PartialTagOutcome.MULTI)


def test_tag_bits_available():
    assert tag_bits_available(16, CFG.tag_shift) == 2  # paper §7.1
    assert tag_bits_available(8, CFG.tag_shift) == 0
    assert tag_bits_available(32, CFG.tag_shift) == 18


@given(
    full_tag=st.integers(0, 2**18 - 1),
    resident=st.lists(st.integers(0, 2**18 - 1), max_size=8),
    bits=st.integers(1, 18),
)
def test_partial_classification_soundness(full_tag, resident, bits):
    """Key invariants of the partial compare (why PTM is safe):

    * ZERO at any width implies the full compare also misses;
    * a full-width hit implies every narrower width reports the true
      line among its matchers (never ZERO).
    """
    outcome = classify_partial_tag(full_tag, resident, bits, 18)
    truly_hits = full_tag in resident
    if outcome is PartialTagOutcome.ZERO:
        assert not truly_hits
    if truly_hits:
        assert outcome is not PartialTagOutcome.ZERO
        assert outcome is not PartialTagOutcome.SINGLE_MISS


@given(
    full_tag=st.integers(0, 2**18 - 1),
    resident=st.lists(st.integers(0, 2**18 - 1), max_size=8),
)
def test_full_width_classification_is_exact(full_tag, resident):
    outcome = classify_partial_tag(full_tag, list(dict.fromkeys(resident)), 18, 18)
    if full_tag in resident:
        assert outcome is PartialTagOutcome.SINGLE_HIT
    else:
        assert outcome is PartialTagOutcome.ZERO


#: Small tags collide in their low bits often; large ones reach the top bits.
_TAGS = st.one_of(st.integers(0, 31), st.integers(0, 2**CFG.tag_bits - 1))


@given(tags=st.lists(_TAGS, min_size=1, max_size=12), probe=_TAGS)
def test_resolving_width_stands_for_the_lookup_at_every_width(tags, probe):
    """One resolving width answers the MRU-first lookup at every tag
    width: a hit settles on the right way, and a miss finds no partial
    match, exactly at widths >= it.  The timing fast path stores this
    one number per load in place of a lookup per config."""
    cache = SetAssociativeCache(CFG)
    for tag in tags:  # several same-set lines, MRU order from the stream
        cache.access((tag << CFG.tag_shift) | 0x40)
    addr = (probe << CFG.tag_shift) | 0x40
    width = cache.resolving_width(addr)
    hit = cache.probe(addr)
    assert cache.is_mru(addr) == (cache.set_tags(addr)[:1] == [probe])
    for bits in range(1, CFG.tag_bits + 1):
        outcome, _, correct = partial_tag_lookup(cache, addr, bits)
        settled = width <= bits
        if hit:
            assert correct == settled
        else:
            assert (outcome is PartialTagOutcome.ZERO) == settled
