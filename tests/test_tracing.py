"""Distributed sweep tracing: span round-trips, crash survival, rendering.

The contract under test (``docs/observability.md`` "Sweep tracing"):
spans emitted in the orchestrator and in worker processes merge into
one schema-valid timeline; a traced sweep — even one whose workers are
SIGKILLed and whose journal is resumed — ends with exactly one
completed ``cell`` span per done cell; and the Perfetto export keys
lanes by (process, lane) so processes can never collide.
"""

from __future__ import annotations

import json

import pytest

from repro.core.config import baseline_config, bitslice_config
from repro.experiments.journal import DONE, SweepJournal
from repro.experiments.supervisor import (
    PoolTask,
    SupervisedPool,
    SupervisorPolicy,
    detect_stragglers,
    run_sweep,
)
from repro.harness.faults import ProcessFaultPlan
from repro.obs import tracing
from repro.obs.events import CycleEvent, to_chrome_trace
from repro.obs.tracing import Span, Tracer

N = 1_200
WARMUP = 200


@pytest.fixture(autouse=True)
def _no_leaked_tracer():
    yield
    tracing.end_tracing()


class FakeClock:
    def __init__(self, t=1000.0):
        self.t = t

    def __call__(self):
        self.t += 1.0
        return self.t


# ------------------------------------------------------------ span basics

def test_span_round_trips_through_dict():
    tracer = Tracer(process="orchestrator", clock=FakeClock())
    with tracer.span("sweep.run", category="sweep", jobs=2):
        tracer.mark("cell.quarantine", category="cell", cell="li/ideal")
    for span in tracer:
        clone = Span.from_dict(json.loads(json.dumps(span.to_dict())))
        assert clone == span


def test_validate_span_rejects_malformed_objects():
    tracer = Tracer(clock=FakeClock())
    with tracer.span("ok"):
        pass
    good = tracer.spans()[0].to_dict()
    tracing.validate_span(good)
    for breakage in (
        {"status": "bogus"},
        {"start": "yesterday"},
        {"end": good["start"] - 5.0},
        {"name": None},
        {"lane": "fast"},
        {"args": [1, 2]},
    ):
        with pytest.raises(ValueError):
            tracing.validate_span({**good, **breakage})
    with pytest.raises(ValueError):
        tracing.validate_span({k: v for k, v in good.items() if k != "trace_id"})
    # A finished span must carry its end timestamp.
    with pytest.raises(ValueError):
        tracing.validate_span({**good, "end": None})


def test_mark_spans_are_zero_duration():
    tracer = Tracer(clock=FakeClock())
    mark = tracer.mark("worker.lost", category="worker", reason="sigkill")
    assert mark.status == tracing.MARK
    assert mark.duration == 0.0
    tracing.validate_span(mark.to_dict())


def test_span_context_manager_records_errors():
    tracer = Tracer(clock=FakeClock())
    with pytest.raises(RuntimeError):
        with tracer.span("collect.li", category="collect"):
            raise RuntimeError("disk on fire")
    (span,) = tracer.spans()
    assert span.status == tracing.ERROR
    assert span.args["error"] == "RuntimeError"


def test_profile_report_ranks_span_names_by_self_time():
    """Spans begun inside a span block nest under it; ``--profile``'s
    table charges each name its duration minus its children's and
    leaves marks and cell spans out."""
    tracer = Tracer(clock=FakeClock())  # every clock read advances 1 s
    with tracer.span("collect.li", category="collect") as outer:
        inner = tracer.record("emulate.li", start=outer.start, end=outer.start + 0.5,
                              records=1000)
        tracer.mark("cache.miss.li", category="cache")
    assert inner.parent_id == outer.span_id and tracer.default_parent is None
    assert outer.duration == 4.0
    tracer.record("li/ideal", category="cell", start=0.0, end=100.0)
    lines = tracing.profile_report(tracer).splitlines()
    assert lines[0] == "=== Profile: top 2 of 2 span names by self time ==="
    assert lines[2].split() == ["collect.li", "1", "3.500", "87.5%", "-"]
    assert lines[3].split() == ["emulate.li", "1", "0.500", "12.5%", "2,000"]
    assert lines[4].split() == ["total", "4.000"]
    assert "top 1 of 2" in tracing.profile_report(tracer, top_n=1)


def test_ring_buffer_caps_retained_spans_and_counts_drops():
    tracer = Tracer(capacity=4, clock=FakeClock())
    for i in range(10):
        tracer.mark(f"m{i}")
    assert len(tracer) == 4
    assert tracer.emitted == 10
    assert tracer.dropped == 6
    assert [s.name for s in tracer] == ["m6", "m7", "m8", "m9"]


# --------------------------------------------- cross-process span transport

def test_worker_drain_ingest_round_trip_preserves_lineage():
    """Emit in a 'worker', ship via dict payload, merge, export, validate —
    the full transport path without spawning a process."""
    orch = Tracer(process="orchestrator", clock=FakeClock())
    root = orch.begin("sweep.run", category="sweep")
    orch.default_parent = root.span_id

    worker = Tracer(process="worker-123", clock=FakeClock(2000.0))
    worker.adopt((*orch.context(root),))
    assert worker.trace_id == orch.trace_id
    with worker.span("worker.execute", category="worker.execute") as task:
        worker.default_parent = task.span_id
        with worker.span("simulate.li/ideal", category="simulate"):
            pass
    payload = json.loads(json.dumps(worker.drain()))  # the pipe, in spirit
    assert len(worker) == 0

    assert orch.ingest(payload) == 2
    orch.finish(root)
    merged = orch.spans()
    assert {s.process for s in merged} == {"orchestrator", "worker-123"}
    assert len({s.trace_id for s in merged}) == 1
    by_name = {s.name: s for s in merged}
    assert by_name["worker.execute"].parent_id == root.span_id
    assert by_name["simulate.li/ideal"].parent_id == by_name["worker.execute"].span_id


def test_ingest_drops_malformed_spans_without_raising():
    orch = Tracer(clock=FakeClock())
    good = Tracer(process="worker-1", clock=FakeClock()).mark("fine").to_dict()
    payload = {"spans": [good, {"garbage": True}, "not even a dict"],
               "phases": "also garbage"}
    assert orch.ingest(payload) == 1
    assert orch.ingest(None) == 0
    assert len(orch) == 1


# --------------------------------------------------------- JSONL + Perfetto

def test_jsonl_file_round_trip_and_validation(tmp_path):
    tracer = Tracer(clock=FakeClock())
    with tracer.span("sweep.run", category="sweep"):
        tracer.mark("cell.quarantine", category="cell", cell="li/ideal")
    path = tmp_path / "spans.jsonl"
    n = tracing.write_spans_jsonl(tracer.spans(), path)
    assert n == 2
    assert tracing.validate_spans_file(path) == 2
    assert [s.name for s in tracing.load_spans_jsonl(path)] == [
        s.name for s in sorted(tracer.spans(), key=lambda s: (s.start, s.span_id))
    ]
    path.write_text(path.read_text() + '{"name": "broken"}\n')
    with pytest.raises(ValueError, match=r":3:"):
        tracing.validate_spans_file(path)


def test_chrome_trace_keys_lanes_by_process_and_lane():
    """Two processes using the same lane index must land on different
    pid rows — the collision the cycle-event exporter used to have."""
    orch = Tracer(process="orchestrator", clock=FakeClock())
    a = orch.begin("cell.attempt", category="cell.attempt", lane=0)
    orch.finish(a)
    worker = Tracer(process="worker-9", trace_id=orch.trace_id,
                    clock=FakeClock(2000.0))
    orch.ingest({"spans": [worker.mark("cache.miss.li", lane=0).to_dict()]})

    doc = tracing.spans_to_chrome_trace(orch.spans())
    meta = [e for e in doc["traceEvents"] if e["ph"] == "M"]
    names = {(e["name"], e["args"]["name"]) for e in meta}
    assert ("process_name", "orchestrator") in names
    assert ("process_name", "worker-9") in names
    slices = [e for e in doc["traceEvents"] if e["ph"] in ("X", "i")]
    assert len({e["pid"] for e in slices}) == 2  # same tid, different pid
    # Orchestrator is always pid 1.
    procs = {e["args"]["name"]: e["pid"] for e in meta if e["name"] == "process_name"}
    assert procs["orchestrator"] == 1


def test_chrome_trace_flags_unfinished_spans_and_instants():
    tracer = Tracer(clock=FakeClock())
    tracer._append(tracer.begin("cell.attempt", category="cell.attempt"))  # crashed
    tracer.mark("worker.lost", category="worker")
    doc = tracing.spans_to_chrome_trace(tracer.spans())
    events = {e["name"]: e for e in doc["traceEvents"] if e["ph"] != "M"}
    assert events["cell.attempt"]["ph"] == "X"
    assert events["cell.attempt"]["args"]["unfinished"] is True
    assert events["worker.lost"]["ph"] == "i"
    assert doc["otherData"]["trace_id"] == tracer.trace_id


def test_cpi_sample_counter_track_round_trips_through_chrome_trace(tmp_path):
    """``cpi_sample`` events become ``"C"`` counter events with their
    component series intact, and the written file is byte-deterministic
    (sorted keys)."""
    from repro.obs.events import CPI_SAMPLE, write_chrome_trace

    events = [
        CycleEvent(kind=CPI_SAMPLE, cycle=cycle, seq=0, pc=0,
                   args={"base": 3 * cycle, "memory": 3})
        for cycle in (10, 20)
    ]
    counters = [e for e in to_chrome_trace(events)["traceEvents"] if e["ph"] == "C"]
    assert [(e["name"], e["ts"], e["args"]) for e in counters] == [
        ("cpi_stack", 10, {"base": 30, "memory": 3}),
        ("cpi_stack", 20, {"base": 60, "memory": 3}),
    ]

    path = tmp_path / "events.json"
    assert write_chrome_trace(events, path) == 2
    first = path.read_text()
    write_chrome_trace(events, path)
    assert path.read_text() == first
    reloaded = json.loads(first)
    assert [e for e in reloaded["traceEvents"] if e["ph"] == "C"] == counters
    assert '"args": {"base"' in first  # keys serialized sorted


# ------------------------------------------------------- traced sweeps e2e

def _completed_cell_spans(tracer):
    return tracer.spans(category="cell", status=tracing.OK)


def test_traced_chaotic_sweep_yields_one_span_per_cell(tmp_path):
    """Workers are SIGKILLed and results corrupted under a seeded plan;
    the merged trace must still show every done cell exactly once, plus
    evidence of the chaos (respawns, retries) — and pass export checks."""
    tracer = tracing.start_tracing()
    names, configs = ["li"], [baseline_config(), bitslice_config(2)]
    grid, failures, _, report = run_sweep(
        names, configs, N, WARMUP, jobs=2,
        journal_path=tmp_path / "sweep.journal.json",
        policy=SupervisorPolicy(max_cell_retries=10, backoff=0.0),
        fault_plan=ProcessFaultPlan(seed=11, kill_rate=0.4, corrupt_rate=0.3),
    )
    assert not failures
    cells = _completed_cell_spans(tracer)
    assert len(cells) == report.cells_total == 2
    assert {s.name for s in cells} == {"li/ideal", "li/bitslice-2"}
    assert len({s.trace_id for s in tracer.spans()}) == 1
    # Worker-side spans made it home over the checksummed transport.
    assert {s.process for s in tracer.spans()} != {"orchestrator"}
    assert tracer.spans(category="worker.execute")
    if report.respawns:
        assert tracer.spans(category="cell.attempt", status=tracing.ERROR)

    path = tmp_path / "spans.jsonl"
    assert tracing.write_spans_jsonl(tracer.spans(), path) == len(tracer)
    tracing.validate_spans_file(path)
    perfetto = tmp_path / "spans.perfetto.json"
    assert tracing.write_span_chrome_trace(tracer.spans(), perfetto) > 0
    doc = json.loads(perfetto.read_text())
    pids = {e["pid"] for e in doc["traceEvents"]}
    assert len(pids) == len({s.process for s in tracer.spans()})


def test_resumed_sweep_records_every_done_cell_exactly_once(tmp_path):
    """Kill-and-resume: cells completed by the dead orchestrator appear
    in the resumed run's trace as ``resume: true`` records, so the final
    timeline still covers the full grid with one completed span each."""
    names, configs = ["li"], [baseline_config(), bitslice_config(2)]
    journal_path = tmp_path / "sweep.journal.json"
    args = dict(jobs=1, journal_path=journal_path, fault_plan=ProcessFaultPlan())
    run_sweep(names, configs, N, WARMUP, **args)

    # Doctor the journal the way a SIGKILLed orchestrator leaves it:
    # one cell knocked back to retry, its result gone.
    journal = SweepJournal.load(journal_path)
    victim = journal.cells[1]
    journal.mark_retry(victim.key, "simulated crash")
    journal.result_path(victim.key).unlink()

    tracer = tracing.start_tracing()
    _, failures, _, report = run_sweep(
        names, configs, N, WARMUP, resume=True, **args)
    assert not failures
    assert report.resume_hits == 1 and report.cells_executed == 1

    cells = _completed_cell_spans(tracer)
    assert len(cells) == 2
    assert {s.name for s in cells} == {"li/ideal", "li/bitslice-2"}
    resumed = [s for s in cells if s.args.get("resume")]
    assert len(resumed) == 1
    assert resumed[0].name != f"{victim.benchmark}/{victim.config}"
    assert all(c.state == DONE for c in SweepJournal.load(journal_path).cells)


def test_worker_start_up_is_a_span_of_the_first_attempt():
    """A spawned worker's start-up, from its spawn to its first task, is
    a ``worker.start`` span under the attempt that waited for it."""
    tracer = tracing.start_tracing()
    tasks = [PoolTask(id=t, fn="tests._supervisor_tasks:echo", payload=(t,)) for t in "ab"]
    with SupervisedPool(1) as pool:
        pool.run(tasks)
    (spawn,) = [s for s in tracer if s.name == "worker.spawn"]
    (start,) = [s for s in tracer if s.name == "worker.start"]
    first, _ = sorted(tracer.spans(category="cell.attempt"), key=lambda s: s.start)
    executes = tracer.spans(category="worker.execute")
    assert start.category == "worker" and start.parent_id == first.span_id
    assert start.process == executes[0].process != spawn.process
    assert start.start <= spawn.start <= start.end <= min(s.start for s in executes)
    assert "worker.start" in tracing.profile_report(tracer.spans())


def test_sweep_untraced_by_default_emits_nothing(tmp_path):
    assert tracing.active_tracer() is None
    run_sweep(["li"], [baseline_config()], N, WARMUP, jobs=1,
              journal_path=tmp_path / "j.json", fault_plan=ProcessFaultPlan())
    assert tracing.active_tracer() is None


# ------------------------------------------------------------- stragglers

def test_detect_stragglers_flags_outliers_worst_first():
    wall = {"a": 1.0, "b": 1.2, "c": 0.9, "d": 9.0, "e": 12.0}
    labels = {k: f"bench/{k}" for k in wall}
    out = detect_stragglers(wall, labels)
    assert [r["cell"] for r in out] == ["bench/e", "bench/d"]
    assert out[0]["factor"] > out[1]["factor"] >= 3.0
    assert detect_stragglers({"a": 1.0, "b": 50.0}, labels) == []  # <3 cells


def test_supervisor_report_carries_straggler_and_storm_fields():
    from repro.experiments.supervisor import SupervisorReport

    report = SupervisorReport(cells_total=4)
    report.stragglers = [{"cell": "li/ideal", "wall_seconds": 9.0,
                          "median_seconds": 1.0, "factor": 9.0}]
    report.retry_storms = [{"cell": "li/ideal", "attempts": 4}]
    payload = report.to_dict()
    assert payload["stragglers"][0]["factor"] == 9.0
    assert payload["retry_storms"][0]["attempts"] == 4
    text = report.render()
    assert "1 straggler(s)" in text and "1 retry-storm cell(s)" in text
