"""Guest profiler: per-PC counts, per-line CPI stacks, merge semantics.

The contract, as tests:

* per-PC retired counts come from collected traces only: a cold
  collection on either dispatch tier, a disk-cache hit and a served
  prefix each count exactly their trace's PC histogram, a failed
  collection counts nothing, and the emulator's own runs (warming,
  Figure 1) leave the profile alone;
* per-line cycle stacks sum exactly to the timing run's total cycles,
  identically under both timing modes;
* disabled profiling leaves simulation results byte-identical;
* profiles validate, round-trip through JSON, and merge commutatively
  (the ``--jobs`` transport);
* ``repro-profile`` renders hot-line tables, annotated disassembly,
  and collapsed-stack flamegraphs from both live runs and saved files.
"""

from __future__ import annotations

import gc
import json
from collections import Counter
from itertools import islice

import pytest

from repro import context
from repro.emulator.machine import DISPATCH_TIERS, Machine
from repro.experiments import runner, trace_cache
from repro.isa.assembler import assemble
from repro.obs.attribution import COMPONENT_KEYS
from repro.obs.guestprof import (
    GuestProfileCollector,
    SHORTFALL_PC,
    active_collector,
    end_guest_profile,
    load_profile,
    start_guest_profile,
    suspended_guest_profile,
    validate_profile,
    write_profile,
)

#: A loop with a call, a taken/not-taken branch mix, and memory traffic
#: — shaped so the blocks tier compiles superblocks with side exits.
LOOP_SOURCE = """
main:
 addiu $s0, $zero, 0
 addiu $s1, $zero, 400
 addiu $s2, $sp, -64
loop:
 addiu $s0, $s0, 1
 jal helper
 andi $t1, $s0, 3
 beq $t1, $zero, skip
 sw $s0, 0($s2)
 lw $t2, 0($s2)
skip:
 bne $s0, $s1, loop
 addiu $s0, $zero, 0
 beq $zero, $zero, loop
helper:
 andi $t0, $s0, 7
 addu $t0, $t0, $s0
 jr $ra
"""

STEPS = 3_000

#: The shortest guest (go halts after about 16k instructions at iters=1),
#: collected from its first instruction.
NAME = "go"
ITERS = 1


def _histogram(trace) -> Counter:
    """The oracle: one count per record at its PC."""
    return Counter(record.pc for record in trace)


def _collect(steps: int = STEPS):
    return runner.collect_trace(NAME, steps, iters=ITERS, skip=0)


def _profiled(collect):
    """``collect()``'s trace and the profile bucket it filled."""
    collector = start_guest_profile()
    try:
        trace = collect()
    finally:
        end_guest_profile()
    return trace, collector.benchmarks[NAME]


@pytest.fixture()
def empty_layer():
    runner.clear_trace_cache()
    yield
    runner.clear_trace_cache()


@pytest.mark.parametrize("dispatch", DISPATCH_TIERS)
def test_counts_sum_to_retired(dispatch, monkeypatch, empty_layer):
    """A cold collection on each dispatch tier counts its trace's PC
    histogram, which sums to the records collected."""
    monkeypatch.setenv("REPRO_DISPATCH", dispatch)
    trace, prof = _profiled(_collect)
    assert prof.retired == len(trace) == STEPS
    assert prof.counts == _histogram(trace)


def test_counts_identical_across_tiers(monkeypatch, empty_layer):
    profiles = []
    for dispatch in DISPATCH_TIERS:
        monkeypatch.setenv("REPRO_DISPATCH", dispatch)
        runner.clear_trace_cache()
        profiles.append(_profiled(_collect)[1].counts)
    assert profiles[0] == profiles[1]


def test_cold_counts_match_record_replay(tmp_path, monkeypatch, empty_layer):
    """On both tiers, a cold collection, a disk-cache hit and a served
    prefix each count exactly the PC histogram of the trace returned."""
    for dispatch in DISPATCH_TIERS:
        monkeypatch.setenv("REPRO_DISPATCH", dispatch)
        context.reset(cache_dir=tmp_path / dispatch, cache_enabled=True)
        runner.clear_trace_cache()
        cold, cold_prof = _profiled(_collect)
        runner._collect.cache_clear()
        hit, hit_prof = _profiled(_collect)
        assert trace_cache.stats()["hits"] == 1
        prefix, prefix_prof = _profiled(lambda: _collect(STEPS // 3))
        assert len(prefix) == STEPS // 3 and trace_cache.stats()["hits"] == 1
        for trace, prof in ((cold, cold_prof), (hit, hit_prof), (prefix, prefix_prof)):
            assert prof.retired == len(trace)
            assert prof.counts == _histogram(trace)
        assert hit_prof.counts == cold_prof.counts


def test_failed_collection_counts_only_its_retry(monkeypatch, empty_layer):
    """A collection that fails mid-trace counts nothing: after a retry at
    a degraded budget, the profile holds exactly the retry's trace, also
    once the failed attempt's generator is garbage-collected."""
    real_trace = Machine.trace

    def fail_full_budget(self, max_steps=10_000_000, watchdog=None):
        records = real_trace(self, max_steps, watchdog)
        if max_steps == 4 * STEPS:
            yield from islice(records, 1_500)
            raise RuntimeError("collection fault")
        yield from records

    monkeypatch.setattr(Machine, "trace", fail_full_budget)
    trace, prof = _profiled(lambda: runner.collect_trace_resilient(
        NAME, 4 * STEPS, iters=ITERS, skip=0)[0])
    gc.collect()
    assert len(trace) == STEPS and runner.budget_override(NAME) == STEPS
    assert prof.retired == STEPS
    assert prof.counts == _histogram(trace)


def test_run_warm_warms_under_an_active_profile():
    """Functional warming is the same with a guest profile on: the
    emulator never reads the collector."""
    from repro.core.config import baseline_config
    from repro.timing.sampling import WarmState
    from repro.workloads import get_workload

    def warmed():
        machine = Machine(get_workload("gzip").build())
        warm = WarmState(baseline_config())
        machine.attach_warm_sink(warm.hierarchy, warm.predictor)
        assert machine.run_warm(20_000) == 20_000
        hier, pred = warm.hierarchy, warm.predictor
        return (
            [(cache.hits, cache.misses, cache._sets) for cache in (hier.l1i, hier.l1d, hier.l2)],
            bytes(pred.gshare.table), pred.gshare.history,
        )

    plain = warmed()
    assert plain[0][1][0] + plain[0][1][1] > 0  # the data cache was warmed
    collector = start_guest_profile()
    try:
        assert warmed() == plain
    finally:
        end_guest_profile()
    assert collector.benchmarks == {}


def test_figure1_stays_out_of_the_guest_profile(empty_layer):
    """Figure 1 emulates and times a program of its own: the bucket of
    the benchmark collected before it keeps exactly what it had."""
    from repro.experiments import figure1

    collector = start_guest_profile()
    try:
        _collect()
        before = collector.to_dict()
        figure1.run()
    finally:
        end_guest_profile()
    assert collector.to_dict() == before


def _simulate_with_profile(timing_mode: str):
    from repro.core.config import bitslice_config
    from repro.timing.simulator import simulate

    records = tuple(Machine(assemble(LOOP_SOURCE)).trace(STEPS))
    collector = start_guest_profile()
    try:
        stats = simulate(bitslice_config(4), iter(records), warmup=500, mode=timing_mode)
    finally:
        end_guest_profile()
    return stats, collector.benchmarks["?"]


@pytest.mark.parametrize("timing_mode", ["reference", "fast"])
def test_cycle_stacks_sum_to_total_cycles(timing_mode):
    stats, prof = _simulate_with_profile(timing_mode)
    assert prof.cycles_total == stats.cycles
    assert sum(sum(parts) for parts in prof.cycles.values()) == stats.cycles
    assert all(len(parts) == len(COMPONENT_KEYS) for parts in prof.cycles.values())


def test_cycle_stacks_identical_across_timing_modes():
    _, ref = _simulate_with_profile("reference")
    _, fast = _simulate_with_profile("fast")
    assert fast.cycles == ref.cycles


def test_disabled_profiler_leaves_results_identical():
    from repro.core.config import baseline_config
    from repro.timing.simulator import simulate

    records = tuple(Machine(assemble(LOOP_SOURCE)).trace(STEPS))
    plain = simulate(baseline_config(), iter(records), warmup=500)
    start_guest_profile()
    try:
        profiled = simulate(baseline_config(), iter(records), warmup=500)
    finally:
        end_guest_profile()
    assert active_collector() is None
    assert profiled.to_dict() == plain.to_dict()


def test_profile_roundtrip_and_validation(tmp_path, empty_layer):
    from repro.core.config import bitslice_config
    from repro.timing.simulator import simulate

    collector = start_guest_profile()
    try:
        simulate(bitslice_config(4), _collect(), warmup=500)
    finally:
        end_guest_profile()
    assert collector.benchmarks[NAME].retired == STEPS
    path = tmp_path / "profile.json"
    write_profile(path, collector)
    assert validate_profile(json.loads(path.read_text())) == []
    loaded = load_profile(path)
    assert loaded.to_dict() == collector.to_dict()

    # The validator enforces the exact-sum invariants and format 1's
    # fixed counting mode.
    broken = collector.to_dict()
    broken["benchmarks"][NAME]["retired"] += 1
    assert any("counts sum" in p for p in validate_profile(broken))
    broken = collector.to_dict()
    broken["benchmarks"][NAME]["cycles"][str(SHORTFALL_PC)] = [1] * len(COMPONENT_KEYS)
    assert any("cycle stacks sum" in p for p in validate_profile(broken))
    broken = collector.to_dict()
    broken["mode"], broken["period"] = "sample", 64
    assert len(validate_profile(broken)) == 2


def test_merge_is_commutative_and_drain_resets():
    a = GuestProfileCollector()
    a.begin_benchmark("x")
    a.add_counts({4: 2, 8: 1}, retired=3)
    a.add_cycles({4: [1] * len(COMPONENT_KEYS)}, total_cycles=len(COMPONENT_KEYS))
    b = GuestProfileCollector()
    b.begin_benchmark("x")
    b.add_counts({8: 5, 12: 1}, retired=6)
    b.begin_benchmark("y")
    b.add_counts({4: 1}, retired=1)

    ab = GuestProfileCollector()
    ab.ingest(a.to_dict())
    ab.ingest(b.to_dict())
    ba = GuestProfileCollector()
    ba.ingest(b.to_dict())
    ba.ingest(a.to_dict())
    assert ab.to_dict() == ba.to_dict()
    assert ab.benchmarks["x"].counts == {4: 2, 8: 6, 12: 1}

    payload = a.drain()
    assert payload["benchmarks"]  # the drained snapshot kept the data
    assert a.benchmarks == {}     # ...and the collector reset
    assert a.drain()["benchmarks"] == {}


def test_suspension_excludes_bookkeeping_runs():
    from repro.core.config import baseline_config
    from repro.timing.simulator import simulate

    records = tuple(Machine(assemble(LOOP_SOURCE)).trace(1_000))
    collector = start_guest_profile()
    try:
        with suspended_guest_profile():
            assert active_collector() is None
            simulate(baseline_config(), records)
        assert active_collector() is collector
    finally:
        end_guest_profile()
    assert collector.benchmarks == {}


def test_worker_state_round_trips_guest_profile(tmp_path):
    """A worker's run context, restored from the parent's pickled
    snapshot, keeps every knob and runs a collector and a tracer of its
    own (the parent's session stays behind)."""
    import pickle

    from repro import context
    from repro.experiments import trace_cache
    from repro.obs.session import start_session
    from repro.obs.tracing import start_tracing

    parent_collector = start_guest_profile()
    start_tracing()
    start_session()
    parent = context.current()
    parent.wall_timeout = 7.5
    parent.budget_overrides["li"] = 1234
    trace_cache.configure(tmp_path, enabled=True)
    worker = pickle.loads(pickle.dumps(parent.snapshot())).restore()
    assert worker.collector is not None and worker.collector is not parent_collector
    assert worker.tracer.process.startswith("worker-") and worker.tracer is not parent.tracer
    assert (worker.wall_timeout, worker.budget_overrides) == (7.5, {"li": 1234})
    assert (worker.cache_dir, worker.cache_enabled) == (tmp_path, True)
    assert worker.session is None


# ------------------------------------------------------------ repro-profile

def _collect_synthetic(tmp_path):
    """A saved profile for a benchmark name with no known program."""
    collector = GuestProfileCollector()
    collector.begin_benchmark("synthetic")
    collector.add_counts({4194304: 7, 4194308: 3}, retired=10)
    collector.add_cycles(
        {4194304: [2] * len(COMPONENT_KEYS)}, total_cycles=2 * len(COMPONENT_KEYS)
    )
    path = tmp_path / "synthetic.json"
    write_profile(path, collector)
    return path


def test_profile_cli_reports_saved_profile(tmp_path, capsys):
    from repro.experiments.profile_cli import main

    path = _collect_synthetic(tmp_path)
    flame = tmp_path / "out.folded"
    assert main(["--in", str(path), "--flamegraph", str(flame)]) == 0
    out = capsys.readouterr().out
    assert "=== synthetic ===" in out
    assert "retired 10" in out
    assert "hot lines" in out
    stacks = flame.read_text().splitlines()
    assert stacks == ["synthetic;? 10"]


def test_profile_cli_live_run_annotates_and_saves(tmp_path, capsys):
    from repro.experiments.profile_cli import main

    saved = tmp_path / "li.json"
    flame = tmp_path / "li.folded"
    rc = main(
        [
            "-b", "li", "-n", "2000", "--warmup", "200",
            "--config", "bitslice4", "--annotate", "--annotate-min", "50",
            "--out", str(saved), "--flamegraph", str(flame),
        ]
    )
    assert rc == 0
    out = capsys.readouterr().out
    assert "=== li ===" in out
    assert "hot functions" in out
    assert "CPI" in out
    assert "---" in out  # at least one annotated function listing
    assert validate_profile(json.loads(saved.read_text())) == []
    for line in flame.read_text().splitlines():
        stack, count = line.rsplit(" ", 1)
        assert stack.startswith("li;")
        assert int(count) > 0


def test_profile_cli_rejects_unknown_benchmark(capsys):
    from repro.experiments.profile_cli import main

    assert main(["-b", "nope"]) == 2
    assert "unknown benchmark" in capsys.readouterr().err
