"""Shared assembly fragments for the workload suite.

Every workload links in the same deterministic xorshift32 PRNG (state
lives in guest memory, seeded statically) and the same reporting
epilogue, so that runs are bit-reproducible and self-checking.

Register conventions inside workloads:

* ``$at`` is reserved for assembler expansions (``la``, ``li``, pseudo
  branches) and must not be live across them.
* ``$t8``/``$t9`` are clobbered by the ``rand`` subroutine.
* ``$v0``/``$a0`` are clobbered by syscalls and ``rand``.
"""

from __future__ import annotations

#: xorshift32 PRNG; result in $v0, clobbers $t8/$t9/$at.
RAND_ASM = """
# --- deterministic xorshift32 PRNG ------------------------------------
        .data
        .align 2
rng_state: .word {seed}
        .text
rand:   lw   $v0, rng_state
        sll  $t8, $v0, 13
        xor  $v0, $v0, $t8
        srl  $t8, $v0, 17
        xor  $v0, $v0, $t8
        sll  $t8, $v0, 5
        xor  $v0, $v0, $t8
        la   $t9, rng_state
        sw   $v0, 0($t9)
        jr   $ra
"""


def rand_asm(seed: int = 0x2545F491) -> str:
    """The PRNG fragment with the given non-zero 32-bit seed."""
    if seed == 0:
        raise ValueError("xorshift32 seed must be non-zero")
    return RAND_ASM.format(seed=seed & 0xFFFFFFFF)


def epilogue(name: str, checksum_reg: str = "$s7") -> str:
    """Reporting epilogue: prints ``<name>:<checksum>\\n`` then exits.

    The checksum register defaults to ``$s7``, which workloads
    accumulate into as they run.
    """
    return f"""
# --- report checksum and exit -----------------------------------------
        .data
bench_name: .asciiz "{name}:"
        .text
finish: la   $a0, bench_name
        li   $v0, 4
        syscall
        move $a0, {checksum_reg}
        li   $v0, 1
        syscall
        li   $a0, 10
        li   $v0, 11
        syscall
        halt
"""


def scaled_size(base: int, footprint_divisor: int) -> int:
    """Shrink a power-of-two footprint by a power-of-two divisor.

    Used by the input profiles (test/train/ref): dividing keeps every
    ``value & (size - 1)`` mask a valid 16-bit immediate, which growing
    the footprint would not.
    """
    if footprint_divisor <= 0 or footprint_divisor & (footprint_divisor - 1):
        raise ValueError("footprint_divisor must be a positive power of two")
    if base % footprint_divisor:
        raise ValueError(f"footprint {base} not divisible by {footprint_divisor}")
    size = base // footprint_divisor
    if size <= 0:
        raise ValueError("footprint divided away entirely")
    return size
