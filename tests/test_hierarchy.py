"""Memory hierarchy latencies and inclusion behaviour."""

from repro.memsys.hierarchy import MemoryHierarchy, Table2Hierarchy


def test_table2_latencies():
    h = Table2Hierarchy()
    cold = h.access_data(0x1000_0000)
    assert not cold.l1_hit and not cold.l2_hit
    assert cold.latency == 1 + 6 + 100
    warm = h.access_data(0x1000_0000)
    assert warm.l1_hit and warm.latency == 1


def test_l2_hit_after_l1_eviction():
    h = MemoryHierarchy()
    base = 0x1000_0000
    h.access_data(base)
    # Evict from the 4-way L1 set by touching 4 conflicting lines
    # (same L1 set => index bits equal; stride = one L1 way size).
    stride = h.l1d.config.num_sets * h.l1d.config.line_size
    for i in range(1, 5):
        h.access_data(base + i * stride)
    result = h.access_data(base)
    assert not result.l1_hit
    assert result.l2_hit
    assert result.latency == 1 + 6


def test_instruction_and_data_paths_are_separate():
    h = MemoryHierarchy()
    h.access_instruction(0x0040_0000)
    result = h.access_data(0x0040_0000)
    # L1D missed, but unified L2 already holds the line.
    assert not result.l1_hit and result.l2_hit


def test_slice4_l1_latency():
    h = Table2Hierarchy(l1_latency=2)
    h.access_data(0x2000)
    assert h.access_data(0x2000).latency == 2


def test_warm_data_reaches_l2_only_on_an_l1_miss():
    """Functional warming allocates like an access: an L1D miss fills
    both levels, an L1D hit leaves the L2 as it was."""
    h = MemoryHierarchy()
    h.warm_data(0x1000)
    assert h.l1d.probe(0x1000) and h.l2.probe(0x1000)
    h.l2._sets[h.l2.config.split(0x1000)[0]].clear()
    h.warm_data(0x1000)
    assert h.l1d.probe(0x1000) and not h.l2.probe(0x1000)
