"""Whole-trace characterization kernels: exact equivalence with the oracles."""

from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.characterization import vectorized
from repro.characterization.lsq_char import characterize_lsq
from repro.characterization.tag_char import characterize_tags
from repro.characterization.vectorized import characterize_lsq_fast, characterize_tags_fast
from repro.emulator.trace import TraceRecord
from repro.experiments import figure2, figure4
from repro.experiments.report import FIDELITY_BENCHMARKS, FIDELITY_INSTRUCTIONS, FIDELITY_WARMUP
from repro.isa.instructions import Instruction
from repro.lsq.disambiguation import LSDCategory
from repro.memsys.cache import CacheConfig
from repro.memsys.partial_tag import PartialTagOutcome

_INSTS = {
    "lw": Instruction("lw", rs=4, rt=8, imm=0),
    "sw": Instruction("sw", rs=4, rt=9, imm=0),
    "addu": Instruction("addu", rs=8, rt=9, rd=10),
}


def _record(mnemonic: str, addr: int) -> TraceRecord:
    mem_addr = -1 if mnemonic == "addu" else addr
    return TraceRecord(pc=0x400000, inst=_INSTS[mnemonic], rs_val=addr, rt_val=0, result=0,
                       mem_addr=mem_addr, taken=False, next_pc=0x400004)


def _trace(ops) -> tuple[TraceRecord, ...]:
    return tuple(_record(m, a) for m, a in ops)


# Same word, other bytes of it, and words differing from it first at a
# low, middle or top compared bit: partial matches at narrow widths are
# common and resolve at different widths.
_WORD = 0x10008000
ADDRS = st.sampled_from(
    [_WORD + byte for byte in range(4)] + [_WORD ^ (1 << bit) for bit in (2, 3, 5, 9, 16, 31)] + [0, 0xFFFFFFFF]
)
OPS = st.lists(st.tuples(st.sampled_from(sorted(_INSTS)), ADDRS), max_size=60)


@given(OPS, st.sampled_from([1, 2, 3, 32]), st.integers(1, 8))
@settings(max_examples=200, deadline=None)
def test_lsq_kernel_matches_oracle(ops, lsq_size, chunk):
    trace = _trace(ops)
    with mock.patch.object(vectorized, "CHUNK_ROWS", chunk):  # chunks cut through windows
        fast = characterize_lsq_fast(trace, lsq_size=lsq_size)
    slow = characterize_lsq(trace, lsq_size=lsq_size)
    assert fast.loads == slow.loads
    assert fast.counts == slow.counts


# Four sets of 16-byte lines (tag from bit 6, 26 tag bits) at 1, 2 and
# 8 ways; tags that agree on many low bits, and one per top bit.
GEOMETRIES = [CacheConfig(size=64 * ways, assoc=ways, line_size=16) for ways in (1, 2, 8)]
_TAGS = [0, 1, 2, 3, 5, 9, 0x41, 0x2001, 1 << 25, (1 << 26) - 1]
TAG_ADDRS = st.builds(lambda tag, index, byte: tag << 6 | index << 4 | byte,
                      st.sampled_from(_TAGS), st.integers(0, 3), st.integers(0, 15))
TAG_OPS = st.lists(st.tuples(st.sampled_from(sorted(_INSTS)), TAG_ADDRS), max_size=60)


@given(TAG_OPS, st.sampled_from(GEOMETRIES), st.integers(0, 70), st.integers(1, 8))
@settings(max_examples=200, deadline=None)
def test_tag_kernel_matches_oracle(ops, config, warmup, chunk):
    trace = _trace(ops)
    with mock.patch.object(vectorized, "CHUNK_ROWS", chunk):
        fast = characterize_tags_fast(trace, config, warmup=warmup)
    slow = characterize_tags(trace, config, warmup=warmup)
    assert fast.accesses == slow.accesses
    assert fast.counts == slow.counts


def test_figures_match_oracles_at_report_budgets(monkeypatch):
    def runs():
        fig2 = figure2.run(FIDELITY_BENCHMARKS, FIDELITY_INSTRUCTIONS)
        fig4 = figure4.run(instructions=FIDELITY_INSTRUCTIONS, warmup=FIDELITY_WARMUP)
        return fig2, fig4

    fast2, fast4 = runs()
    monkeypatch.setattr(figure2, "characterize_lsq_fast", characterize_lsq)
    monkeypatch.setattr(figure4, "characterize_tags_fast", characterize_tags)
    slow2, slow4 = runs()
    assert fast2.rows() == slow2.rows()
    assert fast4.rows() == slow4.rows()
    assert {k: c.counts for k, c in fast2.panels.items()} == {k: c.counts for k, c in slow2.panels.items()}
    assert {k: c.counts for k, c in fast4.panels.items()} == {k: c.counts for k, c in slow4.panels.items()}


@pytest.mark.parametrize("bit", [0, 1, 32, 40])
def test_lsq_kernel_rejects_widths_the_oracle_rejects(small_traces, bit):
    trace = small_traces["bzip"]
    message = rf"high_bit must be in \[2, 31\], got {bit}"
    with pytest.raises(ValueError, match=message):
        characterize_lsq(trace, bits=(bit,))
    with pytest.raises(ValueError, match=message):
        characterize_lsq_fast(trace, bits=(bit,))


@pytest.mark.parametrize("bit", [0, 22, 40])
def test_tag_kernel_rejects_widths_the_oracle_rejects(small_traces, bit):
    config = CacheConfig(size=8 * 1024, assoc=4, line_size=32)  # 21 tag bits
    trace = small_traces["vortex"]
    message = rf"bits must be in 1\.\.{config.tag_bits}, got {bit}"
    with pytest.raises(ValueError, match=message):
        characterize_tags(trace, config, bits=(bit,))
    with pytest.raises(ValueError, match=message):
        characterize_tags_fast(trace, config, bits=(bit,))


def test_characterize_lsq_fast_equivalent(small_traces):
    trace = small_traces["bzip"]
    bits = (2, 5, 9, 15, 31)
    slow = characterize_lsq(trace, lsq_size=32, bits=bits)
    fast = characterize_lsq_fast(trace, lsq_size=32, bits=bits)
    assert slow.loads == fast.loads
    assert slow.counts == fast.counts


def test_characterize_tags_fast_equivalent(small_traces):
    trace = small_traces["vortex"]
    cfg = CacheConfig(size=8 * 1024, assoc=4, line_size=32)
    bits = (1, 3, 6, cfg.tag_bits)
    slow = characterize_tags(trace, cfg, bits=bits, warmup=500)
    fast = characterize_tags_fast(trace, cfg, bits=bits, warmup=500)
    assert slow.accesses == fast.accesses
    assert slow.counts == fast.counts


def test_empty_store_window_curve():
    # A one-entry LSQ holds only the load itself, so no load sees a store.
    trace = _trace([("lw", 0x1234), ("lw", 0x1238), ("sw", 0x1234), ("lw", 0x1234)])
    result = characterize_lsq_fast(trace, lsq_size=1)
    assert result.loads == 3
    assert result.counts == {b: {LSDCategory.NO_STORES: 3} for b in range(2, 32)}


def test_empty_set_tag_curve():
    # Every access is the first to its set.
    config = CacheConfig(size=8 * 1024, assoc=4, line_size=32)
    trace = _trace([("lw", index * 32) for index in range(5)])
    result = characterize_tags_fast(trace, config)
    assert result.accesses == 5
    assert result.counts == {b: {PartialTagOutcome.ZERO: 5} for b in range(1, config.tag_bits + 1)}
