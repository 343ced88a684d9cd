"""Persistent trace cache: round-trip fidelity and corruption fallback."""

from __future__ import annotations

from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given, settings

from repro.emulator.machine import Machine
from repro.experiments import runner, trace_cache
from repro.isa.assembler import assemble
from repro.workloads import get_workload

from tests.test_differential import straight_line_program


@pytest.fixture()
def cache(tmp_path):
    """An enabled, empty cache in a throwaway directory."""
    trace_cache.configure(tmp_path, enabled=True)
    trace_cache.reset_stats()
    runner.clear_trace_cache()
    yield tmp_path
    runner.clear_trace_cache()


def _collect_fresh(name: str, n: int):
    """Collect via the runner with the in-memory L1 emptied first."""
    runner._collect.cache_clear()
    return runner.collect_trace(name, n)


def test_miss_then_hit_round_trips_bit_identically(cache):
    first = _collect_fresh("li", 1_500)
    assert trace_cache.stats() == {
        "enabled": True, "dir": str(cache), "hits": 0, "misses": 1,
        "corrupt_entries": 0,
    }
    second = _collect_fresh("li", 1_500)
    assert trace_cache.stats()["hits"] == 1
    # Tuple equality over TraceRecord compares every field of every
    # record: the reload is bit-identical, not merely "close".
    assert first == second


@given(straight_line_program())
@settings(max_examples=15, deadline=None)
def test_store_load_round_trip_random_programs(tmp_path_factory, case):
    """Property: any collected trace survives a store/load unchanged."""
    source, _ops = case
    d = tmp_path_factory.mktemp("cache")
    trace_cache.configure(d, enabled=True)
    try:
        machine = Machine(assemble(source))
        records = tuple(machine.trace(5_000))
        key = "k" * 64
        trace_cache.store("prog", key, records)
        assert trace_cache.load("prog", key) == records
    finally:
        trace_cache.configure(enabled=False)
        trace_cache.reset_stats()


def test_corrupted_entry_falls_back_to_recollection(cache):
    baseline = _collect_fresh("li", 1_200)
    (entry,) = list(cache.iterdir())
    data = entry.read_bytes()
    entry.write_bytes(data[: len(data) // 2])  # torn write
    again = _collect_fresh("li", 1_200)
    assert again == baseline
    stats = trace_cache.stats()
    assert stats["misses"] == 2 and stats["hits"] == 0
    # The torn file was dropped and replaced by the re-collection.
    assert trace_cache.load("li", _key_for("li", 1_200)) == baseline


def test_corruption_recovery_is_not_silent(cache, capsys):
    """Satellite of the robustness PR: dropping a corrupt entry must
    warn on stderr and count, not vanish into the miss statistics."""
    baseline = _collect_fresh("li", 1_200)
    (entry,) = list(cache.iterdir())
    entry.write_bytes(entry.read_bytes()[:100])
    capsys.readouterr()  # discard collection-phase output
    assert _collect_fresh("li", 1_200) == baseline
    err = capsys.readouterr().err
    assert "dropped corrupt entry" in err and entry.name in err
    stats = trace_cache.stats()
    assert stats["corrupt_entries"] == 1 and stats["misses"] == 2


def test_corruption_counter_reaches_obs_session(cache, capsys):
    from repro.obs.session import end_session, start_session

    _collect_fresh("li", 1_100)
    (entry,) = list(cache.iterdir())
    entry.write_bytes(b"garbage")
    session = start_session()
    try:
        _collect_fresh("li", 1_100)
        value = session.registry.counter("cache.corrupt_entries").value
    finally:
        end_session()
    assert value == 1


def test_garbage_entry_falls_back_to_recollection(cache):
    baseline = _collect_fresh("li", 1_200)
    (entry,) = list(cache.iterdir())
    entry.write_bytes(b"not an npz archive at all")
    assert _collect_fresh("li", 1_200) == baseline
    assert trace_cache.stats()["hits"] == 0


def _key_for(name: str, n: int) -> str:
    program = get_workload(name).build(iters=None, profile="ref")
    return trace_cache.cache_key(name, n, None, None, "ref", program)


def test_key_depends_on_every_parameter_and_the_image(cache):
    program = get_workload("li").build(iters=None, profile="ref")
    base = trace_cache.cache_key("li", 1000, None, None, "ref", program)
    assert trace_cache.cache_key("mcf", 1000, None, None, "ref", program) != base
    assert trace_cache.cache_key("li", 2000, None, None, "ref", program) != base
    assert trace_cache.cache_key("li", 1000, 2, None, "ref", program) != base
    assert trace_cache.cache_key("li", 1000, None, 0, "ref", program) != base
    assert trace_cache.cache_key("li", 1000, None, None, "test", program) != base
    patched = replace(program, text=list(program.text[:-1]) + [program.text[-1] ^ 1])
    assert trace_cache.cache_key("li", 1000, None, None, "ref", patched) != base


@pytest.mark.parametrize("name, prefix", [
    ("bzip", "7a2095f8aa3811a2b0a2ff3c"),
    ("li", "baba9544113b0dbee9e61e65"),
    ("mcf", "00dd0aa4d17c3aa13250d4ec"),
    ("twolf", "a9e2dc8156c30be333221bb0"),
])
def test_report_entry_names_are_pinned(name, prefix):
    """The report's 5,000-record entries keep their file names, so warm
    caches stay valid with no ``CACHE_SCHEMA`` bump (committed skips
    and the digest's move into the assembler change no key byte)."""
    assert trace_cache.entry_path(name, _key_for(name, 5_000)).name == f"{name}-{prefix}.npz"


def test_disabled_cache_touches_no_files(cache):
    trace_cache.configure(cache, enabled=False)
    _collect_fresh("li", 800)
    assert list(cache.iterdir()) == []
    assert trace_cache.stats() == {
        "enabled": False, "dir": str(cache), "hits": 0, "misses": 0,
        "corrupt_entries": 0,
    }


def test_env_var_disables_and_redirects(tmp_path, monkeypatch):
    trace_cache.configure()  # fall through to the environment
    monkeypatch.setenv(trace_cache.ENV_VAR, "off")
    assert not trace_cache.enabled()
    monkeypatch.setenv(trace_cache.ENV_VAR, str(tmp_path / "alt"))
    assert trace_cache.enabled()
    assert trace_cache.cache_dir() == tmp_path / "alt"
    monkeypatch.delenv(trace_cache.ENV_VAR)
    assert trace_cache.enabled()
    assert trace_cache.cache_dir() == Path(trace_cache.DEFAULT_DIR).expanduser()


def test_clear_trace_cache_resets_counters_not_files(cache):
    _collect_fresh("li", 900)
    assert trace_cache.stats()["misses"] == 1
    runner.clear_trace_cache()
    assert trace_cache.stats() == {
        "enabled": True, "dir": str(cache), "hits": 0, "misses": 0,
        "corrupt_entries": 0,
    }
    assert len(list(cache.iterdir())) == 1  # entries are content-addressed
