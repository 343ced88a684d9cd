"""Guest profiler: per-PC counts, per-line CPI stacks, merge semantics.

The acceptance contract of the profiling PR, as tests:

* per-PC retired counts are identical across the emulator dispatch
  tiers (reference / blocks) and sum exactly to the run's total
  retirements;
* per-line cycle stacks sum exactly to the timing run's total cycles,
  identically under both timing modes;
* disabled profiling leaves simulation results byte-identical;
* profiles validate, round-trip through JSON, and merge commutatively
  (the ``--jobs`` transport);
* ``repro-profile`` renders hot-line tables, annotated disassembly,
  and collapsed-stack flamegraphs from both live runs and saved files.
"""

from __future__ import annotations

import json

import pytest

from repro.emulator.machine import Machine
from repro.isa.assembler import assemble
from repro.obs.attribution import COMPONENT_KEYS
from repro.obs.guestprof import (
    GuestProfileCollector,
    SHORTFALL_PC,
    active_collector,
    end_guest_profile,
    load_profile,
    profile_from_records,
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


def _run_counts(dispatch: str | None = None, steps: int = STEPS):
    """Retired counts from one machine run on *dispatch* (default tier
    when ``None``)."""
    machine = Machine(assemble(LOOP_SOURCE), dispatch=dispatch)
    collector = start_guest_profile()
    try:
        machine.run(steps)
    finally:
        end_guest_profile()
    prof = collector.benchmarks["?"]
    return prof


# "fast" is the retired per-instruction tier's name, still accepted as a
# spelling of the production tier.
@pytest.mark.parametrize("dispatch", ["reference", "fast", "blocks"])
def test_counts_sum_to_retired(dispatch):
    prof = _run_counts(dispatch)
    assert prof.retired == STEPS
    assert sum(prof.counts.values()) == STEPS


def test_counts_identical_across_tiers():
    reference = _run_counts("reference")
    default = _run_counts()
    assert default.counts == reference.counts


def test_cold_counts_match_record_replay():
    """Machine-loop counting ≡ replaying cached records (cache-hit path)."""
    records = tuple(Machine(assemble(LOOP_SOURCE)).trace(STEPS))
    cold = _run_counts()
    replay = GuestProfileCollector()
    profile_from_records(records, replay)
    assert replay.benchmarks["?"].counts == cold.counts
    assert replay.benchmarks["?"].retired == cold.retired


def test_sample_mode_counts_samples():
    machine = Machine(assemble(LOOP_SOURCE))
    collector = start_guest_profile(mode="sample", period=64)
    try:
        machine.run(STEPS)
    finally:
        end_guest_profile()
    prof = collector.benchmarks["?"]
    assert prof.retired == STEPS
    assert prof.sampled == STEPS // 64
    assert sum(prof.counts.values()) == prof.sampled
    # Sampling cadence survives the cache-hit replay path too.
    replay = GuestProfileCollector(mode="sample", period=64)
    records = tuple(Machine(assemble(LOOP_SOURCE)).trace(STEPS))
    profile_from_records(records, replay)
    assert replay.benchmarks["?"].counts == prof.counts


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


def test_profile_roundtrip_and_validation(tmp_path):
    machine = Machine(assemble(LOOP_SOURCE))
    collector = start_guest_profile()
    try:
        collector.begin_benchmark("loopy")
        machine.run(STEPS)
    finally:
        end_guest_profile()
    path = tmp_path / "profile.json"
    write_profile(path, collector)
    assert validate_profile(json.loads(path.read_text())) == []
    loaded = load_profile(path)
    assert loaded.benchmarks["loopy"].counts == collector.benchmarks["loopy"].counts

    # The validator enforces the exact-sum invariants.
    broken = collector.to_dict()
    broken["benchmarks"]["loopy"]["retired"] += 1
    assert any("counts sum" in p for p in validate_profile(broken))
    broken = collector.to_dict()
    broken["benchmarks"]["loopy"]["cycles"][str(SHORTFALL_PC)] = [1] * len(COMPONENT_KEYS)
    assert any("cycle stacks sum" in p for p in validate_profile(broken))


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
    collector = start_guest_profile()
    try:
        with suspended_guest_profile():
            assert active_collector() is None
            Machine(assemble(LOOP_SOURCE)).run(1_000)
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

    parent_collector = start_guest_profile(mode="sample", period=32)
    start_tracing()
    start_session()
    parent = context.current()
    parent.wall_timeout = 7.5
    parent.budget_overrides["li"] = 1234
    trace_cache.configure(tmp_path, enabled=True)
    worker = pickle.loads(pickle.dumps(parent.snapshot())).restore()
    assert (worker.collector.mode, worker.collector.period) == ("sample", 32)
    assert worker.collector is not parent_collector
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
