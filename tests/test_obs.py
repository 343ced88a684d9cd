"""Observability layer: registry, events, manifest, session."""

import json

import pytest

from repro.obs.events import (
    COMMIT,
    FETCH,
    REPLAY,
    EventTrace,
    to_chrome_trace,
    validate_event,
    validate_jsonl_file,
    write_chrome_trace,
    write_jsonl,
)
from repro.obs.manifest import (
    build_manifest,
    load_bench_snapshot,
    validate_bench_snapshot,
    validate_manifest,
    write_bench_snapshot,
)
from repro import context
from repro.obs.registry import MetricsRegistry, validate_metrics_dump
from repro.obs.session import ObsSession, active_session, end_session, start_session


# ---------------------------------------------------------------- registry

def test_counter_gauge_accumulate():
    """Counters and histograms accumulate across get-or-create calls."""
    reg = MetricsRegistry()
    reg.counter("sim.loads").inc(3)
    reg.counter("sim.loads").inc(2)          # get-or-create: same metric
    reg.histogram("sim.run_instructions").observe(1000)
    reg.histogram("sim.run_instructions").observe(3000)
    assert reg.get("sim.loads").value == 5
    assert reg.get("sim.run_instructions").count == 2
    assert reg.get("sim.run_instructions").total == 4000


def test_kind_conflict_rejected():
    reg = MetricsRegistry()
    reg.counter("a.b")
    with pytest.raises(TypeError):
        reg.histogram("a.b")
    reg.histogram("c.d")
    with pytest.raises(TypeError):
        reg.counter("c.d")


def test_bad_names_rejected():
    reg = MetricsRegistry()
    for bad in ("", ".", "a..b", "a."):
        with pytest.raises(ValueError):
            reg.counter(bad)


def test_histogram_log2_buckets():
    reg = MetricsRegistry()
    h = reg.histogram("lat")
    for v in (0, 1, 2, 3, 4, 1000):
        h.observe(v)
    assert h.count == 6 and h.total == 1010
    b = h.nonzero_buckets()
    assert b["le_2**0"] == 2       # 0 and 1
    assert b["le_2**1"] == 1       # 2
    assert b["le_2**2"] == 2       # 3, 4
    assert b["le_2**10"] == 1      # 1000
    assert h.mean == pytest.approx(1010 / 6)


def test_dump_roundtrip_and_merge():
    """A dump survives JSON unchanged and validates."""
    a = MetricsRegistry()
    a.counter("c").inc(2)
    a.histogram("h").observe(5)
    dump = json.loads(a.to_json())
    validate_metrics_dump(dump)
    assert dump == a.to_dict()
    assert dump["metrics"]["c"]["value"] == 2
    assert dump["metrics"]["h"]["count"] == 1
    assert dump["metrics"]["h"]["buckets"] == {"le_2**3": 1}


def test_validate_metrics_dump_rejects_garbage():
    with pytest.raises(ValueError):
        validate_metrics_dump({"format": 99, "metrics": {}})
    with pytest.raises(ValueError):
        validate_metrics_dump({"format": 1, "metrics": {"x": {"kind": "nope"}}})
    with pytest.raises(ValueError):
        validate_metrics_dump({"format": 1, "metrics": {"x": {"kind": "counter"}}})
    # Spans time a run and the manifest names what ran: no clocks or
    # last-written values in a dump.
    for kind, fields in (("timer", {"seconds": 1.0, "calls": 1}), ("gauge", {"value": 1.0})):
        with pytest.raises(ValueError):
            validate_metrics_dump({"format": 1, "metrics": {"x": {"kind": kind, **fields}}})


# ------------------------------------------------------------------ events

def test_ring_buffer_bounds_and_counts_drops():
    trace = EventTrace(capacity=4)
    for i in range(10):
        trace.emit(FETCH, i, i, 0x400000 + 4 * i)
    assert len(trace) == 4
    assert trace.emitted == 10
    assert trace.dropped == 6
    assert [e.cycle for e in trace] == [6, 7, 8, 9]


def test_unbounded_trace_keeps_everything():
    trace = EventTrace(capacity=None)
    for i in range(1000):
        trace.emit(COMMIT, i, i, 0)
    assert len(trace) == 1000 and trace.dropped == 0


def test_jsonl_roundtrip_validates(tmp_path):
    trace = EventTrace()
    trace.emit(FETCH, 5, 1, 0x400000, {"mnemonic": "addu"})
    trace.emit(REPLAY, 9, 1, 0x400000, {"reason": "l1d_miss"})
    path = tmp_path / "events.jsonl"
    assert write_jsonl(trace, path) == 2
    assert validate_jsonl_file(path) == 2
    lines = [json.loads(line) for line in path.read_text().splitlines()]
    assert lines[0]["kind"] == "fetch" and lines[1]["args"]["reason"] == "l1d_miss"


def test_validate_event_rejects_bad_shapes():
    with pytest.raises(ValueError):
        validate_event({"kind": "fetch", "cycle": 1, "seq": 1})       # no pc
    with pytest.raises(ValueError):
        validate_event({"kind": "warp", "cycle": 1, "seq": 1, "pc": 0})
    with pytest.raises(ValueError):
        validate_event({"kind": "fetch", "cycle": "one", "seq": 1, "pc": 0})


def test_chrome_trace_pairs_fetch_commit(tmp_path):
    trace = EventTrace()
    trace.emit(FETCH, 10, 1, 0x1000, {"mnemonic": "lw"})
    trace.emit(COMMIT, 25, 1, 0x1000, {"complete": 22, "mispredicted": False})
    trace.emit(REPLAY, 18, 1, 0x1000, {"reason": "l1d_miss"})
    payload = to_chrome_trace(trace)
    slices = [e for e in payload["traceEvents"] if e["ph"] == "X"]
    instants = [e for e in payload["traceEvents"] if e["ph"] == "i"]
    assert len(slices) == 1 and slices[0]["name"] == "lw"
    assert slices[0]["ts"] == 10 and slices[0]["dur"] == 15
    assert len(instants) == 1 and instants[0]["name"] == "replay"
    path = tmp_path / "t.perfetto.json"
    assert write_chrome_trace(trace, path) == 2
    assert "traceEvents" in json.loads(path.read_text())


# ---------------------------------------------------------------- manifest

def test_manifest_builds_and_validates():
    manifest = build_manifest(config={"experiment": "fig11"}, seed=2003, argv=["x"])
    validate_manifest(manifest)
    assert manifest["seed"] == 2003
    assert manifest["config"]["experiment"] == "fig11"
    # In this checkout the SHA must resolve (we run tests inside git).
    assert manifest["git_sha"] is None or len(manifest["git_sha"]) == 40


def test_bench_snapshot_roundtrip(tmp_path):
    manifest = build_manifest(config={}, argv=[])
    benchmarks = {
        "li": {"ipc": {"baseline": 0.8}, "wall_seconds": 1.5, "instructions_per_second": 20000.0},
    }
    path = write_bench_snapshot(tmp_path, "fig11-test", benchmarks, manifest)
    assert path.name == "BENCH_fig11-test.json"
    payload = load_bench_snapshot(path)
    assert payload["benchmarks"]["li"]["ipc"]["baseline"] == 0.8
    assert payload["totals"]["benchmarks"] == 1


def test_bench_snapshot_never_replaces_an_existing_one(tmp_path):
    """Two runs with one name (e.g. ending in the same second) into one
    directory keep a snapshot each; a lone run's name is unchanged."""
    manifest = build_manifest(config={}, argv=[])
    paths = [
        write_bench_snapshot(
            tmp_path, "table1-20260101T000000Z",
            {"li": {"ipc": {"ideal": ipc}, "wall_seconds": 1.0, "instructions_per_second": 1.0}},
            manifest,
        )
        for ipc in (0.5, 0.7)
    ]
    assert [p.name for p in paths] == [
        "BENCH_table1-20260101T000000Z.json", "BENCH_table1-20260101T000000Z-2.json"
    ]
    assert set(tmp_path.iterdir()) == set(paths)
    payloads = [load_bench_snapshot(p) for p in paths]
    assert [p["benchmarks"]["li"]["ipc"]["ideal"] for p in payloads] == [0.5, 0.7]
    assert [p["run"] for p in payloads] == [p.name[len("BENCH_"):-len(".json")] for p in paths]


def test_bench_snapshot_validation_rejects_missing_fields(tmp_path):
    manifest = build_manifest(config={}, argv=[])
    with pytest.raises(ValueError):
        write_bench_snapshot(tmp_path, "x", {"li": {"ipc": {}}}, manifest)


# ----------------------------------------------------------------- session

def test_session_lifecycle_and_global_handle():
    assert active_session() is None
    session = start_session()
    try:
        assert active_session() is session
    finally:
        assert end_session() is session
    assert active_session() is None


def test_session_aggregates_runs_into_bench_records():
    from repro.timing.stats import SimStats

    session = ObsSession()
    session.current_benchmark = "li"
    context.current().count("emulate.instructions", 5000)
    stats = SimStats(config_name="baseline", instructions=1000, cycles=2000, loads=100)
    session.record_run(stats, 0.25)
    stats2 = SimStats(config_name="bitslice-2", instructions=1000, cycles=1500)
    session.record_run(stats2, 0.25)
    records = session.bench_records()
    assert set(records) == {"li"}
    li = records["li"]
    # The manifest names the tiers that ran; a record does not repeat them.
    assert set(li) == {"ipc", "wall_seconds", "instructions", "runs", "instructions_per_second"}
    assert li["ipc"] == {"baseline": 0.5, "bitslice-2": pytest.approx(1000 / 1500)}
    assert li["instructions"] == 2000
    assert li["instructions_per_second"] == pytest.approx(2000 / 0.5)
    # Counters accumulated under the catalog names; the dump renders
    # the run context's collection counters beside them.
    registry = session.finalize_registry()
    assert registry.get("sim.instructions").value == 2000
    assert registry.get("sim.mem.loads").value == 100
    assert registry.get("emulate.instructions").value == 5000


def test_session_heartbeat_emits_progress_lines():
    import io

    stream = io.StringIO()
    session = ObsSession(heartbeat_interval=0.0, stream=stream)
    context.current().count("emulate.collections")
    session.heartbeat("collect.li")
    out = stream.getvalue()
    assert "[obs]" in out and "1 collections" in out


# ----------------------------------------------------------- stats export

def test_simstats_catalog_is_complete():
    from repro.timing.stats import _catalog_is_complete

    assert _catalog_is_complete()


def test_simstats_to_dict_includes_extra_and_derived():
    from repro.timing.stats import DERIVED_CATALOG, METRIC_CATALOG, SimStats

    stats = SimStats(config_name="baseline", instructions=100, cycles=200,
                     loads=10, l1d_hits=8, l1d_misses=2, extra={"byp": 3})
    d = stats.to_dict()
    assert d["config_name"] == "baseline"
    assert set(METRIC_CATALOG) <= set(d)
    assert d["extra"] == {"byp": 3}
    assert set(d["derived"]) == set(DERIVED_CATALOG)
    assert d["derived"]["ipc"] == 0.5
    assert d["derived"]["l1d_hit_rate"] == 0.8
    d["extra"]["byp"] = 99
    assert stats.extra["byp"] == 3  # to_dict returns a copy


def test_simstats_merge_sums_counters_and_extra():
    from repro.timing.stats import SimStats

    a = SimStats(config_name="baseline", instructions=100, cycles=100, extra={"x": 1})
    b = SimStats(config_name="baseline", instructions=300, cycles=500, extra={"x": 2, "y": 5})
    m = a.merge(b)
    assert m.config_name == "baseline"
    assert m.instructions == 400 and m.cycles == 600
    assert m.ipc == pytest.approx(400 / 600)  # instruction-weighted, not mean of IPCs
    assert m.extra == {"x": 3, "y": 5}
    cross = a.merge(SimStats(config_name="bitslice-2"))
    assert cross.config_name == "baseline+bitslice-2"


def test_simstats_merge_all():
    from repro.timing.stats import SimStats

    runs = [SimStats(config_name="c", instructions=i) for i in (1, 2, 3)]
    assert SimStats.merge_all(runs).instructions == 6
    with pytest.raises(ValueError):
        SimStats.merge_all([])


def test_finalize_registry_includes_profiler_and_event_counts():
    session = ObsSession(trace_events=True, events_capacity=2)
    session.events.emit(FETCH, 0, 1, 0)
    session.events.emit(FETCH, 1, 2, 0)
    session.events.emit(FETCH, 2, 3, 0)
    reg = session.finalize_registry()
    assert reg.get("obs.events.emitted").value == 3
    assert reg.get("obs.events.dropped").value == 1
