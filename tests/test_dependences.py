"""Inter-slice dependence rules (paper Figure 8), timed where they run.

Each test times closed-form chain kernels: a loop whose body is a chain
of one dependent operation, run at two unroll counts.  The difference
cancels the loop overhead, the prologue and the drain, and warming up
over the first iterations cancels the cold I-cache misses, so the extra
cycles per dependent op follow by hand from Figure 8 and Table 2:

* on an atomic machine a dependent op waits for the whole EX pipe:
  1 cycle on the ideal machine, ``ex_stages`` when simply pipelined;
* on a bit-sliced machine with partial operand bypassing, an op whose
  slice *k* needs only input slices that the previous op has already
  produced issues one cycle behind it, slice by slice: 1 cycle per op,
  whether its slices issue in order or out of order;
* an op whose result needs every input slice waits for the top one.

Both ``REPRO_TIMING`` modes must hit every count exactly.
"""

from fractions import Fraction

from repro.core.config import Features, baseline_config, bitslice_config, simple_pipeline_config
from repro.emulator.machine import Machine
from repro.isa.assembler import assemble
from repro.timing.simulator import simulate

ITERATIONS = 200
#: Leading iterations simulated as warmup: they take the cold I-cache misses.
WARM_ITERATIONS = 8
SHORT, LONG = 8, 16

CONFIGS = {
    "ideal": baseline_config(),
    "simple-pipe-2": simple_pipeline_config(2),
    "simple-pipe-4": simple_pipeline_config(4),
    **{
        f"slice-by-{slices}{'-ooo' if ooo else ''}": bitslice_config(
            slices, Features(partial_operand_bypassing=True, out_of_order_slices=ooo)
        )
        for slices in (2, 4)
        for ooo in (False, True)
    },
}

#: A dependent op on an atomic machine: one trip through the EX pipe.
ATOMIC = {"ideal": 1, "simple-pipe-2": 2, "simple-pipe-4": 4}
#: One cycle per op on every sliced machine.
SLICE_PIPELINED = {name: 1 for name in CONFIGS if name.startswith("slice-by")}


def _trace(ops: tuple[str, ...], unroll: int) -> tuple:
    body = "\n".join(f"      {op}" for _ in range(unroll) for op in ops)
    source = f"""
main: li $s0, {ITERATIONS}
      li $t1, 12345
loop:
{body}
      addiu $s0, $s0, -1
      bgtz $s0, loop
      halt
"""
    return tuple(Machine(assemble(source)).trace(1_000_000))


def _assert_chain(op: str | tuple[str, ...], expected: dict[str, int]) -> None:
    """Each config's cycles per added step of the chain equal *expected*.

    A step is *op*, or each op of a tuple in turn.
    """
    assert set(expected) == set(CONFIGS)
    ops = (op,) if isinstance(op, str) else op
    traces = {unroll: _trace(ops, unroll) for unroll in (SHORT, LONG)}
    added = (ITERATIONS - WARM_ITERATIONS) * (LONG - SHORT)
    for mode in ("fast", "reference"):
        measured = {}
        for name, config in CONFIGS.items():
            cycles = {
                # Warm over the two li and whole iterations.
                unroll: simulate(
                    config, trace, warmup=2 + WARM_ITERATIONS * (len(ops) * unroll + 2), mode=mode
                ).cycles
                for unroll, trace in traces.items()
            }
            measured[name] = Fraction(cycles[LONG] - cycles[SHORT], added)
        assert measured == expected, (op, mode)


def test_logic_needs_own_slice_only():
    """Slice k of an ``xor`` reads input slice k alone."""
    _assert_chain("xor $t0, $t0, $t1", {**ATOMIC, **SLICE_PIPELINED})


def test_arith_carry_chain():
    """Slice k of an ``addiu`` waits for its input slice k and its own
    carry out of slice k-1, both one cycle behind."""
    _assert_chain("addiu $t0, $t0, 1", {**ATOMIC, **SLICE_PIPELINED})


def test_shift_left_pulls_lower_slices():
    """Slice k of an ``sll`` needs input slices 0..k, which the previous
    shift produced low first."""
    _assert_chain("sll $t0, $t0, 1", {**ATOMIC, **SLICE_PIPELINED})


def test_shift_right_pulls_higher_slices():
    """Slice k of an ``srl`` needs input slices k..top.  Right shifts
    issue their top slice first, so in-order slices pipeline too."""
    _assert_chain("srl $t0, $t0, 1", {**ATOMIC, **SLICE_PIPELINED})


def test_issue_order():
    """An ``addiu`` issues its slices low first and an ``srl`` top first,
    so each hands the other its needed slice last: a chain alternating
    the two waits for every slice of both ops, in or out of order."""
    _assert_chain(("srl $t0, $t0, 1", "addiu $t0, $t0, 1"), {
        **{name: 2 * cycles for name, cycles in ATOMIC.items()},
        "slice-by-2": 4, "slice-by-2-ooo": 4, "slice-by-4": 8, "slice-by-4-ooo": 8,
    })


def test_compare_and_full_need_everything():
    """An ``slt`` result exists once its top slice has the sign: a chain
    ripples through every slice.  A full-width ``add.s`` takes
    max(FP ALU latency 2, EX depth) on every machine."""
    _assert_chain("slt $t0, $t0, $t1", {
        **ATOMIC, "slice-by-2": 2, "slice-by-2-ooo": 2, "slice-by-4": 4, "slice-by-4-ooo": 4,
    })
    _assert_chain("add.s $f0, $f0, $f2", {
        name: max(2, config.ex_stages) for name, config in CONFIGS.items()
    })
