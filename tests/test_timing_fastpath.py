"""Lockstep parity suite for the timing-layer fast path.

The fast path (:func:`repro.timing.fastpath.run_fast`) is claimed to be
bit-identical to :meth:`TimingSimulator.run_reference` by construction.
This file enforces the claim three ways:

* hypothesis-generated random programs (ALU-only and store/load-heavy)
  cross-checked through :func:`repro.timing.cross_check_timing`, which
  compares full stats *and* complete cycle-event streams;
* real benchmark trace slices across representative configurations;
* a pruning regression: with an ``lsq_size`` far smaller than the
  number of in-flight stores, the incremental store window must still
  agree with the reference's full-scan disambiguation — i.e. pruning
  never drops a store whose commit is still visible to a younger load.
"""

from __future__ import annotations

import dataclasses
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import Features, baseline_config, bitslice_config, simple_pipeline_config
from repro.emulator.machine import Machine
from repro.isa.assembler import assemble
from repro.timing import cross_check_timing, default_timing_mode, simulate
from repro.timing.simulator import TimingSimulator

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
    for cfg in (baseline_config(), lsq_cfg):
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
]


@pytest.mark.parametrize("name", ["li", "mcf"])
def test_lockstep_benchmark_slices(small_traces, name):
    trace = small_traces[name]
    for cfg in TIMING_CONFIGS:
        cross_check_timing(cfg, trace, warmup=200)


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
