"""Lockstep parity suite for the timing-layer fast path.

The fast path (:func:`repro.timing.fastpath.run_fast`: a front-end pass
over the predictor and caches, then a timing pass over its columns) is
claimed to be bit-identical to :meth:`TimingSimulator.run_reference` by
construction.  This file enforces the claim on:

* hypothesis-generated random programs (ALU-only and store/load-heavy)
  cross-checked through :func:`repro.timing.cross_check_timing`, which
  compares full stats *and* complete cycle-event streams;
* a hypothesis matrix over every generated handler shape (every op
  family, unsliced machines, slices in and out of order, every
  extension, one and four issue slots per pipe), the issue pools'
  pruning across runs, and the shape-keyed code cache;
* real benchmark trace slices across representative configurations,
  the §5.1/§5.2/§6 extensions included;
* sampling windows that run on warm predictor and cache state;
* a pruning regression: with an ``lsq_size`` far smaller than the
  number of in-flight stores, the incremental store window must still
  agree with the reference's full-scan disambiguation — i.e. pruning
  never drops a store whose commit is still visible to a younger load;
* a forwarded load whose line is off its set's MRU way (the one case
  where timing feeds back into the caches), also across runs;
* :func:`simulate_configs`, whose shared front-end passes must give
  every config its standalone stats, with no predictor or caches built
  for the runs that replay them;
* event traces restricted to a late window (``EventTrace.first_seq``),
  which both modes must cut at the same instruction.
"""

from __future__ import annotations

import copy
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
from repro.isa.opclass import OpClass
from repro.obs.events import EARLY_RELEASE, REPLAY, WAY_MISPREDICT, EventTrace
from repro.timing import cross_check_timing, default_timing_mode, fastpath, frontend, simulate
from repro.timing.fastpath import _diff_events
from repro.timing.resources import BandwidthPool
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
# Generated handlers: every shape, every slice discipline
# ---------------------------------------------------------------------------

#: Sources include $zero, which the handlers drop.
_SRC = ["$t0", "$t1", "$t2", "$t3", "$zero"]
_DST = ["$t0", "$t1", "$t2", "$t3"]

#: The ops of the handler-shape programs, by family; a drawn item fills
#: in its registers and immediates.
SHAPE_ITEMS = {
    "logic": ["and", "or", "xor", "nor", "andi", "ori", "xori", "lui"],
    "arith": ["addu", "subu", "addiu"],
    "shift": ["sll", "srl", "sra", "sllv", "srlv", "srav"],
    "compare": ["slt", "sltu", "slti", "sltiu"],
    "muldiv": ["mult", "multu", "div", "divu"],
    "fp": ["add.s"],
    "load": ["lw", "lh", "lhu", "lb", "lbu"],
    "store": ["sw", "sh", "sb"],
    "branch2": ["beq", "bne"],
    "branch1": ["blez", "bgtz", "bltz", "bgez"],
    "jump": ["j", "jal", "nop"],
}

_ALIGN = {"lw": 4, "sw": 4, "lh": 2, "lhu": 2, "sh": 2}


def _shape_item(draw, kind, op, label):
    """Source lines of one body item (*label* names a forward target)."""
    rd, rs, rt = draw(st.sampled_from(_DST)), draw(st.sampled_from(_SRC)), draw(
        st.sampled_from(_SRC)
    )
    if kind == "logic" and op in ("andi", "ori", "xori"):
        return [f"    {op} {rd}, {rs}, {draw(st.integers(0, 0xFFFF))}"]
    if op == "lui":
        return [f"    lui {rd}, {draw(st.integers(0, 0xFFFF))}"]
    if op in ("addiu", "slti", "sltiu"):
        return [f"    {op} {rd}, {rs}, {draw(st.integers(-0x8000, 0x7FFF))}"]
    if op in ("sll", "srl", "sra"):
        return [f"    {op} {rd}, {rt}, {draw(st.integers(0, 31))}"]
    if op in ("sllv", "srlv", "srav"):
        return [f"    {op} {rd}, {rt}, {rs}"]
    if kind == "muldiv":
        return [f"    {op} {rs}, {rt}", f"    mfhi {rd}", f"    mflo {rt if rt != '$zero' else rd}"]
    if kind == "fp":  # an FP ALU op and the FP mult/div unit
        return [
            f"    mtc1 {rs}, $f1", "    add.s $f2, $f1, $f1",
            "    mul.s $f3, $f2, $f1", f"    mfc1 {rd}, $f3",
        ]
    if kind in ("load", "store"):
        off = _ALIGN.get(op, 1) * draw(st.integers(0, 60 // _ALIGN.get(op, 1)))
        return [f"    {op} {rd if kind == 'load' else rt}, {off}($s0)"]
    skip = [f"    xor {rd}, {rs}, {rt}", f"{label}:"]
    if kind == "branch2":
        return [f"    {op} {rs}, {rt}, {label}", *skip]
    if kind == "branch1":
        return [f"    {op} {rs}, {label}", *skip]
    if op == "j":
        return [f"    j {label}", *skip]
    if op == "jal":  # a call and its jr $ra
        return ["    jal sub"]
    if op == "nop":
        return ["    nop"]
    return [f"    {op} {rd}, {rs}, {rt}"]


def _shape_program(draw, items) -> str:
    """A loop over *items* with a subroutine; repeats warm the predictor
    and reuse every handler."""
    lines = ["    la $s0, buf"]
    for reg in _DST:
        lines.append(f"    li {reg}, {draw(st.integers(0, 0xFFFFFFFF))}")
    lines.append(f"    li $s1, {draw(st.integers(2, 4))}")
    lines.append("loop:")
    for i, (kind, op) in enumerate(items):
        lines += _shape_item(draw, kind, op, f"L{i}")
    lines += [
        "    addiu $s1, $s1, -1",
        "    bgtz $s1, loop",
        "    halt",
        "sub:",
        "    addu $t3, $t0, $t1",
        "    jr $ra",
        "    .data",
        "buf: .space 64",
        "    .text",
    ]
    return "\n".join(lines)


@st.composite
def shape_program(draw):
    """A random mix of body items from :data:`SHAPE_ITEMS`."""
    kinds = st.sampled_from(sorted(SHAPE_ITEMS))
    items = []
    for _ in range(draw(st.integers(4, 24))):
        kind = draw(kinds)
        items.append((kind, draw(st.sampled_from(SHAPE_ITEMS[kind]))))
    return _shape_program(draw, items)


@st.composite
def every_shape_program(draw):
    """Every op of :data:`SHAPE_ITEMS` once, in a drawn order."""
    items = [(kind, op) for kind, ops in SHAPE_ITEMS.items() for op in ops]
    return _shape_program(draw, draw(st.permutations(items)))


def _slice_configs():
    bypass = Features(partial_operand_bypassing=True)
    in_order_early = Features(partial_operand_bypassing=True, early_branch_resolution=True)
    ooo = Features(partial_operand_bypassing=True, out_of_order_slices=True)
    configs = [baseline_config(), simple_pipeline_config(2), simple_pipeline_config(4)]
    for s in (2, 4):
        configs += [
            bitslice_config(s, bypass, name=f"slice{s}-bypass"),
            bitslice_config(s, in_order_early, name=f"slice{s}-in-order-early"),
            bitslice_config(s, ooo, name=f"slice{s}-ooo"),
            bitslice_config(s, Features.extended(), name=f"slice{s}-extended"),
        ]
    # One issue slot per pipe: reservations walk past full cycles.
    return configs + [
        dataclasses.replace(cfg, issue_width=1, name=f"{cfg.name}-issue1") for cfg in configs
    ]


#: Unsliced machines, slices in order (bypassing only, and with early
#: branch resolution) and out of order, and every extension, each also
#: with ``issue_width=1``.
SHAPE_CONFIGS = _slice_configs()


@settings(max_examples=12, deadline=None)
@given(shape_program())
def test_lockstep_handler_shapes(source):
    trace = _trace(source)
    for cfg in SHAPE_CONFIGS:
        cross_check_timing(cfg, trace)


@settings(max_examples=3, deadline=None)
@given(every_shape_program())
def test_lockstep_every_handler_shape(source):
    """One program with every op compiles every handler kind, and runs
    a ``zero`` handler with §5.3 early resolution on and off under
    either slice order."""
    trace = _trace(source)
    bind = fastpath.bind_plan
    zero_runs = set()  # (early resolution, slices in order)

    def recording_bind(sim, info, load_tail, trace):
        plan = bind(sim, info, load_tail, trace)
        if plan[0].__code__.co_filename == "<timing handler zero>":
            zero_runs.add((sim.early_branch, not sim.ooo_slices))
        return plan

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(fastpath, "_FACTORIES", {})
        mp.setattr(fastpath, "bind_plan", recording_bind)
        for cfg in SHAPE_CONFIGS:
            cross_check_timing(cfg, trace)
        shapes = fastpath._FACTORIES
    kinds = {shape[0] for shape in shapes}
    assert kinds == {"direct", "issue", "slices", "sign", "zero", "load", "store"}
    sliced = {shape[4][:2] for shape in shapes if shape[0] == "slices"}
    assert {klass for klass, _ in sliced} == {
        OpClass.LOGIC, OpClass.ARITH, OpClass.SHIFT_LEFT, OpClass.SHIFT_RIGHT
    }
    assert (OpClass.LOGIC, True) in sliced and (OpClass.LOGIC, False) in sliced
    assert {shape[4] for shape in shapes if shape[0] == "zero"} == {True, False}
    assert zero_runs == {(True, False), (True, True), (False, False), (False, True)}
    assert any(shape[4][2] for shape in shapes if shape[0] == "slices")  # narrow
    assert {shape[4] for shape in shapes if shape[0] == "issue"} >= {
        (False, False), (False, True), (True, False)
    }


def test_issue_pools_prune_in_lockstep():
    """12,000 li records fill the issue pools past their prune limit.
    The trace runs in 3,000-record pieces on one simulator, so each run
    binds its handlers to the pool dicts the runs before it filled: a
    prune must empty a dict in place, or the handlers that hold it and
    the next run's would book the same slots twice (which shows where
    one slot per cycle fills every cycle it books)."""
    trace = tuple(Machine(get_workload("li").build(1)).trace(12_000))
    pieces = [trace[i:i + 3000] for i in range(0, len(trace), 3000)]
    prune = BandwidthPool._prune
    configs = [baseline_config(), simple_pipeline_config(4), bitslice_config(4)]
    for cfg in configs + [dataclasses.replace(c, issue_width=1) for c in configs]:
        runs = {}
        for mode in ("reference", "fast"):
            horizons = []

            def counting_prune(pool, horizon, horizons=horizons):
                horizons.append(horizon)
                prune(pool, horizon)

            sim = TimingSimulator(cfg, events=EventTrace(capacity=None), mode=mode)
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(BandwidthPool, "_prune", counting_prune)
                stats = [sim.run(piece).to_dict() for piece in pieces]
            runs[mode] = (stats, list(sim.events))
            assert horizons, (cfg.name, mode)
        assert runs["fast"][0] == runs["reference"][0], (cfg.name, cfg.issue_width)
        _diff_events(runs["reference"][1], runs["fast"][1])


#: Figure 11's configs: the ideal machine and both slice ladders.
FIGURE11_CONFIGS = [
    baseline_config(), *(cfg for s in (2, 4) for _, cfg in cumulative_configs(s))
]


def test_handlers_compile_once_per_shape(small_traces):
    """Code is cached by shape, never by register: Figure 11's 13 configs
    over li compile a few dozen handler factories for thousands of bound
    handlers, and a second simulator of the same shapes compiles none."""
    trace = small_traces["li"]
    compiles = []
    handlers = []
    bind = fastpath.bind_plan

    def counting_compile(source, filename, mode):
        compiles.append(filename)
        return compile(source, filename, mode)

    def recording_bind(sim, info, load_tail, trace):
        plan = bind(sim, info, load_tail, trace)
        handlers.append(plan[0])
        return plan

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(fastpath, "_FACTORIES", {})
        mp.setattr(fastpath, "compile", counting_compile, raising=False)
        mp.setattr(fastpath, "bind_plan", recording_bind)
        simulate_configs(FIGURE11_CONFIGS, trace)
        assert len(compiles) == len(fastpath._FACTORIES)
        assert 30 <= len(compiles) <= 46  # 37 for this trace
        assert len(handlers) > 10 * len(compiles)
        runs = []
        for _ in range(2):
            compiles.clear()
            handlers.clear()
            TimingSimulator(bitslice_config(4), mode="fast").run(trace)
            runs.append((compiles[:], [handler.__code__ for handler in handlers]))
    assert runs[0][0] == runs[1][0] == []
    assert runs[0][1] == runs[1][1]


def test_fast_mode_reserves_issue_slots_inline(small_traces, monkeypatch):
    """No fast-mode issue reservation calls BandwidthPool.reserve."""
    calls = []
    reserve = BandwidthPool.reserve

    def counting_reserve(pool, cycle):
        calls.append(cycle)
        return reserve(pool, cycle)

    monkeypatch.setattr(BandwidthPool, "reserve", counting_reserve)
    simulate_configs(FIGURE11_CONFIGS, small_traces["li"])
    assert calls == []
    simulate(baseline_config(), small_traces["li"][:100], mode="reference")
    assert calls  # the reference loop still does


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
    """A sampling window: both modes run on copies of one warm state,
    taken part-way through a workload by block-compiled functional
    warming, and must agree on stats, events and the state they leave."""
    machine = Machine(get_workload("go").build(1))
    warm = WarmState(cfg)
    machine.attach_warm_sink(warm.hierarchy, warm.predictor)
    assert machine.run_warm(5000) == 5000
    window = tuple(machine.trace(700))
    runs = {}
    for mode in ("reference", "fast"):
        state = copy.deepcopy(warm)
        sim = TimingSimulator(
            cfg, events=EventTrace(capacity=None), mode=mode,
            predictor=state.predictor, hierarchy=state.hierarchy,
        )
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


def test_replaying_runs_build_no_front_end(monkeypatch):
    """A run that replays another's columns is built on that pass's own
    predictor and caches: only the runs that walk a pass construct them."""
    from repro.timing import simulator

    built = []
    for name in ("FrontEndPredictor", "MemoryHierarchy"):
        cls = getattr(simulator, name)

        def counting(*args, _cls=cls, _name=name, **kwargs):
            built.append(_name)
            return _cls(*args, **kwargs)

        monkeypatch.setattr(simulator, name, counting)
    machine = Machine(get_workload("li").build(1))
    machine.run(5000)
    steady = tuple(machine.trace(3000))
    shared = simulate_configs(SHARING_CONFIGS, steady)
    # Two passes: the default front end and the 1k gshare.
    assert sorted(built) == ["FrontEndPredictor"] * 2 + ["MemoryHierarchy"] * 2
    monkeypatch.undo()
    assert [s.to_dict() for s in shared] == [simulate(c, steady).to_dict() for c in SHARING_CONFIGS]


def test_simulate_configs_in_reference_mode_runs_each_config(small_traces, monkeypatch):
    monkeypatch.setenv("REPRO_TIMING", "reference")
    trace = small_traces["li"]
    configs = SHARING_CONFIGS[:3]
    assert [s.to_dict() for s in simulate_configs(configs, trace, warmup=200)] == [
        simulate(cfg, trace, warmup=200, mode="fast").to_dict() for cfg in configs
    ]


#: A loop whose loads miss (a walk over new lines), wait on a store
#: whose address comes late from ``mult`` (early releases), and
#: alternate between two lines of one L1D set whose visible partial
#: tags agree (way mispredicts): every load-tail event kind.
LOAD_TAIL_KERNEL = """
        .data
        .align 6
buf:    .space 131072
        .text
main:   la   $s0, buf
        li   $s1, 120
        li   $s3, 7
        li   $t5, 0
loop:   mult $s1, $s3
        mflo $t6
        andi $t6, $t6, 0xffc
        addu $t7, $s0, $t6
        sw   $t5, 0($t7)
        addu $t1, $s0, $t5
        lw   $t2, 4($t1)
        andi $t8, $s1, 1
        sll  $t8, $t8, 16
        addu $t9, $s0, $t8
        lw   $t3, 0($t9)
        addu $t4, $t2, $t3
        addiu $t5, $t5, 64
        andi $t5, $t5, 0x3fc0
        addiu $s1, $s1, -1
        bgtz $s1, loop
        halt
"""


@pytest.mark.parametrize(
    "cfg",
    [baseline_config(), simple_pipeline_config(2), bitslice_config(2), bitslice_config(4)],
    ids=lambda cfg: cfg.name,
)
def test_lockstep_window_restricted_events(cfg):
    """An event trace with a ``first_seq`` holds exactly the full
    stream's events of the instructions numbered ``first_seq`` and up,
    in both timing modes, the load tail's replays, early releases and
    way mispredicts included."""
    trace = _trace(LOAD_TAIL_KERNEL)
    first = len(trace) // 2
    full = TimingSimulator(cfg, record_timeline=True, mode="reference")
    full.run(trace)
    tail = {REPLAY} if cfg.num_slices == 1 else {REPLAY, EARLY_RELEASE, WAY_MISPREDICT}
    assert tail <= {e.kind for e in full.events if e.seq < first}
    assert tail <= {e.kind for e in full.events if e.seq >= first}
    streams = {}
    for mode in ("reference", "fast"):
        events = EventTrace(capacity=None, first_seq=first)
        sim = TimingSimulator(cfg, record_timeline=True, events=events, mode=mode)
        assert sim.run(trace).to_dict() == full.stats.to_dict()
        streams[mode] = list(events)
    _diff_events(streams["reference"], streams["fast"])
    _diff_events([e for e in full.events if e.seq >= first], streams["fast"])


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
