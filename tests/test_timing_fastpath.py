"""Lockstep parity suite for the timing-layer fast path.

The fast path (:func:`repro.timing.fastpath.run_fast`: a front-end pass
over the predictor and caches, then a timing pass over its columns) is
claimed to be bit-identical to :meth:`TimingSimulator.run_reference` by
construction.  This file enforces the claim on:

* hypothesis-generated random programs (ALU-only and store/load-heavy)
  cross-checked through :func:`repro.timing.cross_check_timing`, which
  compares full stats *and* complete cycle-event streams;
* real benchmark trace slices across representative configurations,
  the §5.1/§5.2/§6 extensions included;
* sampling windows that adopt warm predictor and cache state;
* a pruning regression: with an ``lsq_size`` far smaller than the
  number of in-flight stores, the incremental store window must still
  agree with the reference's full-scan disambiguation — i.e. pruning
  never drops a store whose commit is still visible to a younger load;
* a forwarded load whose line is off its set's MRU way (the one case
  where timing feeds back into the caches), also across runs;
* :func:`simulate_configs`, whose shared front-end passes must give
  every config its standalone stats.
"""

from __future__ import annotations

import dataclasses
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import (
    Features,
    baseline_config,
    bitslice_config,
    cumulative_configs,
    simple_pipeline_config,
)
from repro.emulator.machine import Machine
from repro.isa.assembler import assemble
from repro.obs.events import EventTrace
from repro.timing import cross_check_timing, default_timing_mode, frontend, simulate
from repro.timing.sampling import WarmState
from repro.timing.simulator import TimingSimulator, simulate_configs
from repro.workloads import get_workload

from tests.test_differential import straight_line_program


def _trace(source: str, limit: int = 10_000):
    return tuple(Machine(assemble(source)).trace(limit))


# ---------------------------------------------------------------------------
# Random-program lockstep parity (TimingSimulator)
# ---------------------------------------------------------------------------

@settings(max_examples=25, deadline=None)
@given(straight_line_program())
def test_lockstep_random_alu_programs(program):
    source, _ = program
    trace = _trace(source)
    for cfg in (baseline_config(), bitslice_config(4)):
        cross_check_timing(cfg, trace)


#: §6 narrow-width relaxation, §5.1 speculative forwarding and §5.2
#: sum-addressed indexing on top of the paper's five techniques.
EXTENDED_CONFIGS = [
    bitslice_config(s, Features.extended(), name=f"slice{s}-all-extensions") for s in (2, 4)
]


@st.composite
def memory_program(draw):
    """Straight-line program mixing ALU ops with stores/loads to a
    shared buffer — exercises store-set windowing and forwarding."""
    regs = ["$t0", "$t1", "$t2", "$t3", "$t4", "$t5"]
    lines = ["    la $s0, buf"]
    for i, reg in enumerate(regs):
        lines.append(f"    li {reg}, {draw(st.integers(0, 0xFFFF))}")
    n_ops = draw(st.integers(min_value=4, max_value=32))
    for _ in range(n_ops):
        kind = draw(st.sampled_from(["store", "load", "alu"]))
        off = 4 * draw(st.integers(min_value=0, max_value=7))
        reg = draw(st.sampled_from(regs))
        if kind == "store":
            lines.append(f"    sw {reg}, {off}($s0)")
        elif kind == "load":
            lines.append(f"    lw {reg}, {off}($s0)")
        else:
            src = draw(st.sampled_from(regs))
            op = draw(st.sampled_from(["addu", "xor", "or", "and"]))
            lines.append(f"    {op} {reg}, {reg}, {src}")
    lines.append("    halt")
    lines.append("    .data")
    lines.append("buf: .space 32")
    lines.append("    .text")
    return "\n".join(lines)


@settings(max_examples=25, deadline=None)
@given(memory_program())
def test_lockstep_random_memory_programs(source):
    trace = _trace(source)
    lsq_cfg = bitslice_config(2, Features(
        partial_operand_bypassing=True, early_lsq_disambiguation=True,
    ))
    for cfg in (baseline_config(), lsq_cfg, *EXTENDED_CONFIGS):
        cross_check_timing(cfg, trace)


# ---------------------------------------------------------------------------
# Real benchmark trace slices
# ---------------------------------------------------------------------------

TIMING_CONFIGS = [
    baseline_config(),
    simple_pipeline_config(4),
    bitslice_config(2),
    bitslice_config(
        4,
        Features(
            partial_operand_bypassing=True,
            early_branch_resolution=True,
            early_lsq_disambiguation=True,
            partial_tag_matching=True,
        ),
        name="slice4-extended",
    ),
    *EXTENDED_CONFIGS,
]


@pytest.mark.parametrize("name", ["li", "mcf"])
def test_lockstep_benchmark_slices(small_traces, name):
    trace = small_traces[name]
    for cfg in TIMING_CONFIGS:
        cross_check_timing(cfg, trace, warmup=200)


# ---------------------------------------------------------------------------
# Windows on adopted warm state (the sampling path)
# ---------------------------------------------------------------------------

def _front_end_state(predictor, hierarchy):
    """Predictor tables and cache contents; hit/lookup counters excluded."""
    gshare, btb, ras = predictor.gshare, predictor.btb, predictor.ras
    return (
        bytes(gshare.table), gshare.history, btb._sets, ras._stack, ras._top, ras._pos,
        hierarchy.l1i._sets, hierarchy.l1d._sets, hierarchy.l2._sets,
    )


@pytest.mark.parametrize(
    "cfg",
    [baseline_config(), EXTENDED_CONFIGS[1]],
    ids=lambda cfg: cfg.name,
)
def test_lockstep_on_adopted_warm_state(cfg):
    """A sampling window: both modes adopt copies of one warm state,
    taken part-way through a workload by block-compiled functional
    warming, and must agree on stats, events and the state they leave."""
    machine = Machine(get_workload("go").build(1))
    warm = WarmState(cfg)
    machine.attach_warm_sink(warm.hierarchy, warm.predictor)
    assert machine.run_warm(5000) == 5000
    window = tuple(machine.trace(700))
    runs = {}
    for mode in ("reference", "fast"):
        state = warm.checkpoint()
        sim = TimingSimulator(cfg, events=EventTrace(capacity=None), mode=mode)
        sim.adopt_warm_state(state.predictor, state.hierarchy)
        stats = sim.run(window, warmup=200)
        runs[mode] = (
            stats.to_dict(), list(sim.events),
            _front_end_state(state.predictor, state.hierarchy),
        )
    assert runs["fast"][0] == runs["reference"][0]
    assert runs["fast"][1] == runs["reference"][1]
    assert runs["fast"][2] == runs["reference"][2]
    assert runs["fast"][2] != _front_end_state(warm.predictor, warm.hierarchy)
    stats = runs["fast"][0]
    assert stats["instructions"] == 500
    assert stats["loads"] and stats["store_forwards"] and stats["branch_mispredicts"]


# ---------------------------------------------------------------------------
# Store-window pruning regression
# ---------------------------------------------------------------------------

def test_store_window_pruning_keeps_visible_stores():
    """A burst of stores far exceeding ``lsq_size``, each later read
    back by a load.  The incremental window prunes committed stores;
    if it ever pruned one whose commit is still visible to an in-flight
    load, disambiguation (and thus the event streams) would diverge
    from the reference full scan."""
    lines = ["    la $s0, buf", "    li $t0, 1"]
    for i in range(24):
        lines.append(f"    addiu $t0, $t0, {i + 1}")
        lines.append(f"    sw $t0, {4 * (i % 8)}($s0)")
        if i % 3 == 2:
            lines.append(f"    lw $t1, {4 * (i % 8)}($s0)")
            lines.append("    addu $t2, $t2, $t1")
    lines += ["    halt", "    .data", "buf: .space 32", "    .text"]
    trace = _trace("\n".join(lines))

    base = bitslice_config(2, Features(
        partial_operand_bypassing=True, early_lsq_disambiguation=True,
    ))
    tiny = dataclasses.replace(base, lsq_size=2, name="tiny-lsq")
    stats = cross_check_timing(tiny, trace)
    # The scenario must genuinely overflow the tiny window.
    assert stats.stores > tiny.lsq_size
    assert stats.loads > 0


#: A load forwarded from a store whose line is no longer its L1D set's
#: MRU way.  Forwarded loads skip the cache, so the set keeps the order
#: C, B, A; had the load touched A, the miss on E would evict B instead
#: of A and the final reload of B would miss.  The cold miss ahead of
#: the store holds its commit back, so every config forwards.
FORWARD_OFF_MRU = """
    la    $s0, buf
    addiu $s1, $s0, 16384
    addiu $s2, $s1, 16384
    addiu $s3, $s2, 16384
    addiu $s4, $s3, 16384
    li    $t9, 7
    lw    $t8, 128($s0)
    sw    $t9, 0($s0)
    lw    $t1, 0($s1)
    lw    $t2, 0($s2)
    lw    $t3, 0($s0)
    lw    $t4, 0($s3)
    lw    $t5, 0($s4)
    lw    $t6, 0($s1)
    addu  $t7, $t3, $t6
    halt
    .data
buf: .space 81920
    .text
"""


@pytest.mark.parametrize("cfg", TIMING_CONFIGS, ids=lambda cfg: cfg.name)
def test_forwarded_load_off_mru_leaves_cache_untouched(cfg):
    """16KB apart is one L1D set (64KB, 4-way); the third access to
    that set is a load the store forwards to while its line is LRU."""
    trace = _trace(FORWARD_OFF_MRU)
    stats = cross_check_timing(cfg, trace)
    assert stats.store_forwards == 1
    assert stats.l1d_misses == 5 and stats.l1d_hits == 1  # B survives
    sim = TimingSimulator(cfg, mode="fast")
    sim.run(trace)
    assert sim.front_end.hazards == 1  # the front-end pass waited on the load


@pytest.mark.parametrize("cfg", [baseline_config(), EXTENDED_CONFIGS[0]], ids=lambda c: c.name)
def test_lockstep_across_consecutive_runs(small_traces, cfg):
    """A run continues the one before it on the same simulator: the
    commits at the last cycle, the fetch line and the store window carry
    over.  li runs in 61-record pieces; the off-MRU forward is split
    between its store and its load."""
    li = small_traces["li"]
    off_mru = _trace(FORWARD_OFF_MRU)
    split = 1 + next(i for i, r in enumerate(off_mru) if r.is_store)
    for pieces in ([li[i:i + 61] for i in range(0, len(li), 61)],
                   [off_mru[:split], off_mru[split:]]):
        runs = []
        for mode in ("reference", "fast"):
            sim = TimingSimulator(cfg, events=EventTrace(capacity=None), mode=mode)
            runs.append(([sim.run(p).to_dict() for p in pieces], list(sim.events)))
        assert runs[0] == runs[1]


# ---------------------------------------------------------------------------
# Front-end columns shared across configs
# ---------------------------------------------------------------------------

#: Both Figure 11 ladders and the ideal machine, the extensions, and two
#: configs off the default front end: a smaller gshare (its own pass)
#: and a faster memory (the shared cache levels at its own latency).
SHARING_CONFIGS = [
    baseline_config(),
    *(cfg for s in (2, 4) for _, cfg in cumulative_configs(s)),
    *EXTENDED_CONFIGS,
    dataclasses.replace(baseline_config(), gshare_entries=1024, name="ideal-gshare1k"),
    dataclasses.replace(baseline_config(), memory_latency=50, name="ideal-mem50"),
]


@pytest.mark.parametrize("name", ["li", "mcf"])
def test_simulate_configs_matches_standalone_runs(small_traces, name, monkeypatch):
    """Past initialization the front end meets no forwarding hazard, so
    one pass serves each front end; the init-inclusive slice meets
    hazards and every config walks its own.  Stats never change."""
    machine = Machine(get_workload(name).build(1))
    machine.run(5000)
    steady = tuple(machine.trace(3000))
    passes = []
    walk = frontend.FrontEndColumns.walk

    def counting_walk(self, records, start):
        if not start:
            passes.append(self.front.predictor.gshare.entries)
        return walk(self, records, start)

    for trace, expected in ((steady, 2), (small_traces[name], len(SHARING_CONFIGS))):
        passes.clear()
        monkeypatch.setattr(frontend.FrontEndColumns, "walk", counting_walk)
        # No warmup: the cold misses are where the memory latency shows.
        shared = simulate_configs(SHARING_CONFIGS, trace)
        monkeypatch.setattr(frontend.FrontEndColumns, "walk", walk)
        # Steady: the small gshare walks its own pass and the rest,
        # the faster memory included, replay the first config's.
        assert len(passes) == expected and passes.count(1024) == 1
        by_name = {}
        for cfg, stats in zip(SHARING_CONFIGS, shared, strict=True):
            assert stats.to_dict() == simulate(cfg, trace).to_dict(), cfg.name
            by_name[cfg.name] = stats
        ideal = by_name["ideal"]
        # Same cache levels, served at its own latency.
        assert by_name["ideal-mem50"].l1d_misses == ideal.l1d_misses
        assert by_name["ideal-mem50"].cycles < ideal.cycles


def test_simulate_configs_in_reference_mode_runs_each_config(small_traces, monkeypatch):
    monkeypatch.setenv("REPRO_TIMING", "reference")
    trace = small_traces["li"]
    configs = SHARING_CONFIGS[:3]
    assert [s.to_dict() for s in simulate_configs(configs, trace, warmup=200)] == [
        simulate(cfg, trace, warmup=200, mode="fast").to_dict() for cfg in configs
    ]


@pytest.mark.parametrize("mode", ["fast", "reference"])
def test_run_takes_exactly_the_simulated_records(mode):
    """A run over an iterator pulls no record past max_instructions + warmup."""
    machine = Machine(get_workload("li").build(1))
    sim = TimingSimulator(baseline_config(), mode=mode)
    stats = sim.run(machine.trace(500), max_instructions=100, warmup=20)
    assert stats.instructions == 100
    assert machine.instret == 120


# ---------------------------------------------------------------------------
# Mode plumbing
# ---------------------------------------------------------------------------

def test_mode_env_toggle(monkeypatch):
    monkeypatch.delenv("REPRO_TIMING", raising=False)
    assert default_timing_mode() == "fast"
    monkeypatch.setenv("REPRO_TIMING", "")
    assert default_timing_mode() == "fast"
    monkeypatch.setenv("REPRO_TIMING", "fast")
    assert TimingSimulator(baseline_config()).mode == "fast"
    monkeypatch.setenv("REPRO_TIMING", "reference")
    assert default_timing_mode() == "reference"
    assert TimingSimulator(baseline_config()).mode == "reference"
    # Explicit per-instance mode beats the environment.
    assert TimingSimulator(baseline_config(), mode="fast").mode == "fast"


@pytest.mark.parametrize("value", ["refrence", "ref", "slow", "anything-else", "FAST"])
def test_mode_env_rejects_unknown_values(monkeypatch, value):
    """A misspelt mode must fail loudly, not run the fast path."""
    monkeypatch.setenv("REPRO_TIMING", value)
    with pytest.raises(ValueError, match="'reference' or 'fast'"):
        default_timing_mode()
    with pytest.raises(ValueError, match="'reference' or 'fast'"):
        TimingSimulator(baseline_config())
    monkeypatch.delenv("REPRO_TIMING")
    with pytest.raises(ValueError, match="'fast' or 'reference'"):
        TimingSimulator(baseline_config(), mode=value)


def test_stats_byte_identical_across_modes(small_traces):
    trace = small_traces["li"]
    cfg = bitslice_config(4)
    fast = simulate(cfg, trace, mode="fast")
    ref = simulate(cfg, trace, mode="reference")
    assert json.dumps(fast.to_dict(), sort_keys=True) == json.dumps(
        ref.to_dict(), sort_keys=True
    )
