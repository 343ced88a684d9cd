"""The columnar :class:`Trace`: its record view, its prefixes, and the
production paths that read its columns and never its records."""

from __future__ import annotations

import pytest

from repro import context
from repro.core.config import baseline_config, cumulative_configs
from repro.emulator import trace as trace_module
from repro.emulator.machine import Machine
from repro.emulator.trace import COLUMNS, Trace, TraceRecord, as_trace
from repro.experiments import runner, trace_cache
from repro.experiments.report import run_fidelity
from repro.timing.simulator import simulate, simulate_configs
from repro.workloads import get_workload


@pytest.fixture(scope="module")
def li_records():
    return tuple(Machine(get_workload("li").build(1)).trace(2_000))


def test_record_view_equals_the_emulators_records(li_records):
    trace = Trace.from_records(iter(li_records))
    assert len(trace) == len(li_records)
    assert tuple(trace) == li_records  # every field of every record
    assert trace == li_records and trace == list(li_records)
    assert trace[0] == li_records[0] and trace[-1] == li_records[-1]
    assert trace[1:301] == li_records[1:301]
    assert trace[::7] == li_records[::7]
    with pytest.raises(IndexError):
        trace[len(li_records)]
    assert len(trace.statics) < 100 < len(trace)  # one entry per static instruction
    assert as_trace(trace) is trace


def test_prefix_shares_columns_and_memo(li_records):
    trace = Trace.from_records(li_records)
    prefix = trace[:500]
    assert len(prefix) == 500 and prefix == li_records[:500]
    for name in ("static", "statics", *COLUMNS):
        assert getattr(prefix, name) is getattr(trace, name)
    assert prefix.memo is trace.memo
    assert trace[:len(trace)] is trace and trace[:10 ** 6] is trace
    assert prefix[:200] == li_records[:200]


@pytest.fixture()
def record_views(monkeypatch):
    """Count the records a :class:`Trace` builds from its columns."""
    built = []

    def counting(*args):
        built.append(args[0])
        return TraceRecord(*args)

    monkeypatch.setattr(trace_module, "TraceRecord", counting)
    return built


def test_spy_sees_the_record_view(li_records, record_views):
    trace = Trace.from_records(li_records)
    simulate(baseline_config(), trace[:100], mode="reference")
    assert len(record_views) == 100


def test_fast_simulate_configs_reads_only_columns(li_records, record_views):
    configs = [baseline_config(), *(cfg for s in (2, 4) for _, cfg in cumulative_configs(s))]
    trace = Trace.from_records(li_records)
    stats = simulate_configs(configs, trace, warmup=500)
    assert record_views == []
    assert stats[0].instructions == len(li_records) - 500
    alone = simulate(configs[-1], trace, warmup=500, mode="fast")
    assert alone.to_dict() == stats[-1].to_dict()
    assert record_views == []


def test_warm_fidelity_report_reads_only_columns(tmp_path, record_views):
    """A warm report loads its traces from the cache, serves prefixes,
    simulates and characterizes without one record view."""
    run = context.current()
    saved = (run.cache_dir, run.cache_enabled)
    trace_cache.configure(tmp_path, enabled=True)
    try:
        runner.clear_trace_cache()
        cold = run_fidelity(("li",), 1500, warmup=500)
        runner.clear_trace_cache()
        record_views.clear()
        before = trace_cache.stats()
        warm = run_fidelity(("li",), 1500, warmup=500)
        after = trace_cache.stats()
        assert after["hits"] > before["hits"] and after["misses"] == before["misses"]
    finally:
        trace_cache.configure(*saved)
        runner.clear_trace_cache()
    assert record_views == []
    assert [c.to_dict() for c in warm.checks] == [c.to_dict() for c in cold.checks]
    assert [s.to_dict() for s in warm.stacks] == [s.to_dict() for s in cold.stacks]
