"""The runner's in-memory trace layer and its prefix serving.

A request no longer than a held trace of the same (benchmark, iters,
skip, profile) is served as that trace's prefix: no emulation, no
persistent-cache read, no counter; an active guest profile is
fed exactly as a cold collection would feed it.
"""

from __future__ import annotations

from contextlib import contextmanager

import pytest

from repro import context
from repro.emulator.machine import Machine
from repro.emulator.trace import COLUMNS
from repro.experiments import runner, trace_cache
from repro.obs import guestprof

#: The shortest guest: go halts after about 16k instructions at iters=1.
NAME = "go"
ITERS = 1
SKIP = 0


@contextmanager
def trace_cache_disabled():
    run = context.current()
    saved = (run.cache_dir, run.cache_enabled)
    trace_cache.configure(enabled=False)
    try:
        yield
    finally:
        trace_cache.configure(*saved)


def _collect(n: int, skip: int = SKIP):
    return runner.collect_trace(NAME, n, iters=ITERS, skip=skip)


def _fresh(n: int):
    """The same request collected from scratch: layer empty, cache off."""
    runner.clear_trace_cache()
    with trace_cache_disabled():
        return _collect(n)


@pytest.fixture(autouse=True)
def _empty_layer(tmp_path):
    trace_cache.configure(tmp_path, enabled=True)
    runner.clear_trace_cache()
    yield
    runner.clear_trace_cache()


@pytest.fixture()
def emulations(monkeypatch):
    """Count every ``Machine.trace`` the runner starts."""
    calls = []
    real = Machine.trace

    def counted(self, *args, **kwargs):
        calls.append(args)
        return real(self, *args, **kwargs)

    monkeypatch.setattr(Machine, "trace", counted)
    return calls


def test_prefix_equals_a_fresh_shorter_collection(emulations):
    long = _collect(3_000)
    assert len(long) == 3_000 and len(emulations) == 1
    counters = dict(context.current().counters)
    assert counters["emulate.collections"] == 1
    short = _collect(1_700)
    assert len(emulations) == 1  # no Machine.trace
    assert context.current().counters == counters
    assert short == long[:1_700]
    assert short == _fresh(1_700)


def test_prefix_shares_the_held_columns(emulations):
    """A prefix is a view on the held trace: the same column lists, no
    copy, and still equal to a fresh shorter collection."""
    long = _collect(3_000)
    short = _collect(1_700)
    assert len(short) == 1_700 and len(emulations) == 1
    for name in ("static", "statics", *COLUMNS):
        assert getattr(short, name) is getattr(long, name), name
    assert short == _fresh(1_700)


def test_exact_repeat_returns_the_same_tuple(emulations):
    first = _collect(1_000)
    prefix = _collect(400)
    stats = trace_cache.stats()
    assert _collect(1_000) is first
    assert _collect(400) is prefix
    assert len(emulations) == 1 and trace_cache.stats() == stats


def test_short_then_long_collects_the_long_trace_in_full(emulations):
    short = _collect(800)
    long = _collect(2_000)
    assert len(emulations) == 2
    assert long[:800] == short
    assert long == _fresh(2_000)


def test_halted_guest_trace_never_serves_a_longer_request(emulations):
    halted = _collect(40_000)
    assert len(halted) < 20_000  # the guest halted early
    again = _collect(len(halted) + 1)
    assert len(emulations) == 2
    assert again == halted
    # A request it does cover is still a prefix.
    assert _collect(len(halted) - 1) == halted[:-1]
    assert len(emulations) == 2


def test_other_parameters_are_never_mixed(emulations):
    base = _collect(600)
    shifted = _collect(300, skip=SKIP + 1)
    assert len(emulations) == 2
    assert shifted == base[1:301]


def test_thirty_third_key_evicts_the_least_recently_used(emulations):
    with trace_cache_disabled():
        for skip in range(32):
            _collect(5, skip=skip)
        _collect(5, skip=0)  # exact hit: skip=1 is now least recently used
        assert len(emulations) == 32
        _collect(5, skip=32)
        assert len(emulations) == 33
        _collect(5, skip=0)
        _collect(4, skip=31)
        assert len(emulations) == 33
        _collect(5, skip=1)
        assert len(emulations) == 34


@pytest.mark.parametrize("clear", [
    runner.clear_trace_cache,
    runner._collect.cache_clear,
])
def test_clearing_empties_the_whole_layer(emulations, clear):
    _collect(1_000)
    clear()
    with trace_cache_disabled():
        _collect(500)
    assert len(emulations) == 2


def test_repeat_after_cache_clear_is_a_disk_hit(emulations):
    """After ``_collect.cache_clear()`` the persistent cache answers."""
    _collect(1_000)
    runner._collect.cache_clear()
    _collect(1_000)
    assert len(emulations) == 1
    assert trace_cache.stats()["hits"] == 1


def test_guest_profile_matches_a_cold_shorter_collection():
    """Serving a prefix feeds the guest profile what collecting it would."""

    def profiled(serve_prefix: bool) -> dict:
        runner.clear_trace_cache()
        collector = guestprof.start_guest_profile()
        try:
            with trace_cache_disabled():
                _collect(2_500)
                if not serve_prefix:
                    runner._collect.cache_clear()
                _collect(1_200)
        finally:
            guestprof.end_guest_profile()
        return collector.to_dict()

    assert profiled(serve_prefix=True) == profiled(serve_prefix=False)
