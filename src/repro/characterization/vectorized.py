"""Whole-trace characterization kernels (Figures 2 and 4).

The scalar studies in :mod:`repro.characterization.lsq_char` and
:mod:`repro.characterization.tag_char` are the oracles: they classify
each access at each partial width in a Python loop.  These kernels give
the same counts from the trace's columns
(:class:`~repro.emulator.trace.Trace`): Figure 2 selects each memory
op's kind and address with numpy, Figure 4 makes one cache walk per
geometry over the ``mem_addr`` column for each L1D access's tag and its
set's MRU-first tags; then a fixed number of numpy calls per chunk of
:data:`CHUNK_ROWS` accesses classifies them, so memory stays bounded at
any length.

An entry's outcome at width *b* is fixed by its lowest bit *d* that
differs from the probe: a store matches address bits 2..*b* iff
``d > b``, a resident tag matches the low *b* tag bits iff ``d >= b``.
A per-row histogram of *d*, summed cumulatively, gives the survivors at
every width at once.  One numpy launch costs about 52 Python closure
calls (``scripts/bench_host_ops.py``), so a launch per access loses to
the scalar loop.  ``tests/test_vectorized.py`` checks the kernels
against the oracles; ``benchmarks/test_throughput.py`` times each pair.
"""

from __future__ import annotations

from itertools import islice

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from repro.characterization.lsq_char import LSQCharacterization
from repro.characterization.tag_char import TagCharacterization
from repro.emulator.trace import as_trace
from repro.lsq.disambiguation import FIRST_COMPARE_BIT, LAST_COMPARE_BIT, LSDCategory, classify_disambiguation
from repro.memsys.cache import CacheConfig, SetAssociativeCache
from repro.memsys.partial_tag import PartialTagOutcome, classify_partial_tag

#: Accesses classified per batch of numpy calls.
CHUNK_ROWS = 1024

_ADDR_MASK = 0xFFFFFFFC  # bits 0-1 never participate (§5.1)


def _first_diff(probes: np.ndarray, entries: np.ndarray, mask: int, width: int) -> np.ndarray:
    """Lowest bit under *mask* where each entry differs from its row's
    probe: *width* when none does, 0 for an empty slot (-1)."""
    x = (entries ^ probes[:, None]) & mask | (1 << width)
    return np.where(entries >= 0, np.frexp(x & -x)[1] - 1, 0).astype(np.int8)


def _above(d: np.ndarray, cols: np.ndarray, top: int) -> np.ndarray:
    """``out[r, j]``: entries of row *r* with ``d > cols[j]`` (0 <= d <= top)."""
    bins = top + 1
    keys = d + (np.arange(len(d)) * bins)[:, None]
    hist = np.bincount(keys.ravel(), minlength=len(d) * bins).reshape(len(d), bins)
    return d.shape[1] - hist.cumsum(axis=1)[:, cols]


def _decide(cases: dict, default) -> np.ndarray:
    """Code (declaration index) of the first category whose condition
    holds, else of *default*: a decision table over all widths at once."""
    order = list(type(default))
    return np.select(list(cases.values()), [order.index(c) for c in cases], order.index(default))


def _count(sample_bits, categories, rows: int, classify) -> dict:
    """Counts per sampled width from ``classify(rows)`` codes, a chunk
    of rows at a time; only nonzero categories are kept."""
    totals = np.zeros((len(sample_bits), len(categories)), dtype=np.int64)
    offsets = np.arange(len(sample_bits)) * len(categories)
    for lo in range(0, rows, CHUNK_ROWS):
        keys = classify(slice(lo, lo + CHUNK_ROWS)) + offsets
        totals += np.bincount(keys.ravel(), minlength=totals.size).reshape(totals.shape)
    counts: dict = {b: {} for b in sample_bits}
    for b, row in zip(sample_bits, totals.tolist()):
        for category, n in zip(categories, row):
            if n:
                counts[b][category] = counts[b].get(category, 0) + n
    return counts


def _lsd_codes(loads: np.ndarray, windows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """Figure 2 categories (loads × widths) against each load's prior
    store word addresses, -1 where a slot holds no store."""
    stores = np.sort(windows, axis=1)
    d = _first_diff(loads, stores, _ADDR_MASK, 32)
    valid = stores >= 0
    n = valid.sum(axis=1)[:, None]
    first = valid.copy()  # each distinct word once: its first sorted slot
    first[:, 1:] &= np.diff(stores, axis=1) != 0
    survivors = _above(d, cols, 32)
    one = survivors == 1  # the lone survivor is the full matcher if any
    return _decide({
        LSDCategory.NO_STORES: n == 0,
        LSDCategory.ZERO_MATCH: survivors == 0,
        LSDCategory.SINGLE_NONMATCH: one & ~(d == 32).any(axis=1)[:, None],
        LSDCategory.SINGLE_MATCH_ONE_STORE: one & (n == 1),
        LSDCategory.SINGLE_MATCH_MULT_STORES: one,
        LSDCategory.MULTI_SAME_ADDR: _above(np.where(first, d, 0), cols, 32) == 1,
    }, LSDCategory.MULTI_DIFF_ADDR)


def characterize_lsq_fast(
    trace,
    benchmark: str = "",
    lsq_size: int = 32,
    bits: tuple[int, ...] | None = None,
) -> LSQCharacterization:
    """Whole-trace equivalent of
    :func:`repro.characterization.lsq_char.characterize_lsq`."""
    sample_bits = tuple(range(FIRST_COMPARE_BIT, LAST_COMPARE_BIT + 1)) if bits is None else bits
    for b in sample_bits:
        classify_disambiguation(0, (), b)  # the oracle's range check
    trace = as_trace(trace)
    n = len(trace)
    static = np.fromiter(trace.static, dtype=np.intp, count=n)
    is_store = np.array([inst.is_store for inst in trace.statics], dtype=np.bool_)[static]
    is_load = np.array([inst.is_load for inst in trace.statics], dtype=np.bool_)[static]
    mem = np.fromiter(trace.mem_addr, dtype=np.int64, count=n)[is_store | is_load]
    stored = is_store[is_store | is_load]
    # A load's window is the stores among the lsq_size - 1 memory ops
    # before it; -1 marks loads and the padding the first loads see.
    width = max(lsq_size - 1, 0)
    column = np.concatenate([np.full(width, -1, dtype=np.int64), np.where(stored, mem & _ADDR_MASK, -1)])
    windows = sliding_window_view(column, width)
    loads = mem[~stored]
    at = np.flatnonzero(~stored)
    cols = np.array(sample_bits, dtype=np.intp)
    counts = _count(sample_bits, LSDCategory, len(at),
                    lambda rows: _lsd_codes(loads[rows], windows[at[rows]], cols))
    return LSQCharacterization(benchmark=benchmark, loads=len(at), counts=counts)


def _tag_codes(tags: np.ndarray, resident: np.ndarray, cols: np.ndarray, tag_width: int) -> np.ndarray:
    """Figure 4 outcomes (accesses × widths) against each access's set
    tags, -1 in empty ways."""
    d = _first_diff(tags, resident, (1 << tag_width) - 1, tag_width)
    survivors = _above(d, cols - 1, tag_width)
    return _decide({
        PartialTagOutcome.ZERO: survivors == 0,
        PartialTagOutcome.MULTI: survivors > 1,
        PartialTagOutcome.SINGLE_HIT: (d == tag_width).any(axis=1)[:, None],
    }, PartialTagOutcome.SINGLE_MISS)


def characterize_tags_fast(
    trace,
    config: CacheConfig,
    benchmark: str = "",
    bits: tuple[int, ...] | None = None,
    warmup: int = 0,
) -> TagCharacterization:
    """Whole-trace equivalent of
    :func:`repro.characterization.tag_char.characterize_tags`."""
    tag_width = config.tag_bits
    sample_bits = tuple(range(1, tag_width + 1)) if bits is None else bits
    for b in sample_bits:
        classify_partial_tag(0, [], b, tag_width)  # the oracle's range check
    cache = SetAssociativeCache(config)
    shift = config.tag_shift
    tags, ways, filled = [], [], []
    trace = as_trace(trace)
    for seen, addr in enumerate(islice(trace.mem_addr, len(trace)), 1):
        if addr < 0:
            continue
        if seen > warmup:
            resident = cache.set_tags(addr)
            tags.append(addr >> shift)
            ways += resident
            filled.append(len(resident))
        cache.access(addr)
    table = np.full((len(tags), config.assoc), -1, dtype=np.int64)
    table[np.arange(config.assoc) < np.array(filled, dtype=np.intp)[:, None]] = ways
    probes = np.array(tags, dtype=np.int64)
    cols = np.array(sample_bits, dtype=np.intp)
    counts = _count(sample_bits, PartialTagOutcome, len(tags),
                    lambda rows: _tag_codes(probes[rows], table[rows], cols, tag_width))
    return TagCharacterization(benchmark=benchmark, config=config, accesses=len(tags), counts=counts)
