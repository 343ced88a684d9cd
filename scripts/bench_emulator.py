#!/usr/bin/env python
"""Benchmark the emulator's execution tiers and gate the blocks floor.

Measures, per workload, full runs to the halt point (bounded by
``--steps``) under each interpreter tier:

* ``blocks`` — the block-compiling production tier
  (``repro.emulator.blocks``), best of ``--repeats``;
* ``reference`` — the golden ``if``/``elif`` interpreter (slow,
  measured once);
* the functional-warming layer — after the init skip, two machines of
  one program alternate equal ``WARM_CHUNK``-instruction chunks of
  ``run`` and ``run_warm`` (block code already cached), and the time
  ratio warm/run is what the warming hooks cost.

Every workload is first lockstep cross-checked against the golden
reference on a trace slice (the pre-bound handlers *and* the compiled
blocks), so a snapshot can never record throughput for a tier that
diverged from the model.  Runs are timed with ``time.process_time``
(wall clock is noisy on shared runners) over a *shared* Program object
so the per-program code cache keeps compiled blocks warm across
repeats — exactly how a sweep reuses them across machines.

Writes a ``BENCH_<run>.json`` snapshot (same schema as the CLI's perf
snapshots, plus ``emulator_*`` / ``blocks_speedup_vs_reference``
sections) for ``scripts/bench_compare.py``'s regression gate::

    python scripts/bench_emulator.py --out benchmarks/BENCH_blocks.json
    python scripts/bench_emulator.py --assert-fast-active --check-speedup

``blocks_speedup_vs_reference`` ratios are host-normalised (both tiers
run in the same process on the same machine), so ``--check-speedup`` is
meaningful on shared CI runners where raw inst/s would not be.  The
warming ratio (``warm_over_run_time_ratio``) is host-normalised the
same way; it is recorded and printed, and gates nothing.
"""

from __future__ import annotations

import argparse
import math
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.core.config import baseline_config  # noqa: E402
from repro.emulator.blocks import cross_check_blocks, stats as block_stats  # noqa: E402
from repro.emulator.dispatch import cross_check  # noqa: E402
from repro.emulator.machine import DISPATCH_TIERS, Machine, default_dispatch  # noqa: E402
from repro.harness.atomicio import atomic_write_json  # noqa: E402
from repro.obs.manifest import bench_snapshot, build_manifest  # noqa: E402
from repro.timing.sampling import WarmState  # noqa: E402
from repro.workloads import BENCHMARK_NAMES, get_workload  # noqa: E402
from repro.workloads.suite import skip_hint  # noqa: E402

#: Instruction cap per run; every workload halts well below this, so
#: measurements are deterministic full runs, never mid-phase windows.
DEFAULT_STEPS = 2_000_000

#: ALU-heavy gate set (the blocks tier's target workloads; the floor in
#: ``--check-speedup`` is the geomean over these).
DEFAULT_BENCHMARKS = ("bzip", "gzip", "li", "mcf", "vortex")

#: Trace slice used for the pre-measurement lockstep parity checks.
PARITY_SLICE = 3_000

#: Geomean blocks-vs-reference floor enforced by ``--check-speedup``:
#: the former 3.0x blocks-over-pre-bound-dispatch floor times the 6.49x
#: pre-bound-over-reference geomean in
#: ``benchmarks/BENCH_blocks_baseline.json``, whose own per-workload
#: numbers give 24.6x (the same ~21% headroom the old floor had).
SPEEDUP_FLOOR = 19.5


#: Instructions per alternating ``run``/``run_warm`` chunk, and chunks
#: per workload (fewer when the guest halts first).
WARM_CHUNK = 50_000
WARM_CHUNKS = 8


def geomean(values) -> float:
    values = list(values)
    return math.exp(sum(math.log(v) for v in values) / len(values)) if values else 0.0


def _best_run(program, mode: str, steps: int, repeats: int):
    """Best-of-*repeats* process seconds for a full run; fresh machine
    per repeat, shared Program (warm per-program block-code cache)."""
    best = math.inf
    retired = None
    for _ in range(repeats):
        machine = Machine(program, dispatch=mode)
        t0 = time.process_time()
        n = machine.run(steps)
        dt = time.process_time() - t0
        if retired is None:
            retired = n
        elif n != retired:
            raise RuntimeError(
                f"nondeterministic run under {mode!r}: {n} != {retired} instructions"
            )
        if dt < best:
            best = dt
    return best, retired


def warm_over_run(program, name: str) -> float:
    """Process-time ratio of ``run_warm`` to ``run`` over one span.

    Two machines of *program* skip its initialization, then alternate
    equal chunks: ``run`` on one, ``run_warm`` (into a fresh Table 2
    hierarchy and predictor) on the other.  A first, untimed pair
    covers the same span, so both variants' blocks come from the
    per-program code cache and the ratio holds no compile time.
    """
    skip = skip_hint(name, "ref")

    def pair():
        warm = WarmState(baseline_config())
        plain, warmer = Machine(program), Machine(program)
        warmer.attach_warm_sink(warm.hierarchy, warm.predictor)
        plain.run(skip)
        warmer.run(skip)
        return plain, warmer

    run_s = warm_s = 0.0
    for timed in (False, True):
        plain, warmer = pair()
        for _ in range(WARM_CHUNKS):
            if plain.halted:
                break
            t0 = time.process_time()
            plain.run(WARM_CHUNK)
            t1 = time.process_time()
            warmer.run_warm(WARM_CHUNK)
            t2 = time.process_time()
            if timed:
                run_s += t1 - t0
                warm_s += t2 - t1
        if warmer.instret != plain.instret:
            raise RuntimeError(
                f"{name}: run_warm retired {warmer.instret} instructions, "
                f"run retired {plain.instret}"
            )
    return warm_s / run_s


def bench_benchmark(name: str, steps: int, repeats: int, verbose=print) -> dict:
    """Parity-check then measure one workload on both tiers."""
    program = get_workload(name).build(iters=None, profile="ref")
    # Parity before measurement: the bound handlers and the compiled
    # blocks in lockstep vs the golden reference on a slice of this
    # exact program.
    cross_check(program, max_steps=PARITY_SLICE)
    cross_check_blocks(program, max_steps=PARITY_SLICE, threshold=0)

    blocks_wall, retired = _best_run(program, "blocks", steps, repeats)
    ref_wall, ref_retired = _best_run(program, "reference", steps, 1)
    if ref_retired != retired:
        raise RuntimeError(
            f"{name}: reference retired {ref_retired} instructions, "
            f"blocks retired {retired}"
        )
    warm_ratio = warm_over_run(program, name)
    row = {
        "instructions": retired,
        "blocks_wall_seconds": blocks_wall,
        "reference_wall_seconds": ref_wall,
        "blocks_instructions_per_second": retired / blocks_wall,
        "reference_instructions_per_second": retired / ref_wall,
        "blocks_speedup_vs_reference": ref_wall / blocks_wall,
        "warm_over_run_time_ratio": warm_ratio,
    }
    verbose(
        f"  {name:<8s} {retired:>9,d} inst   blocks {retired / blocks_wall:>10,.0f} inst/s"
        f"   ref {retired / ref_wall:>8,.0f} inst/s   {ref_wall / blocks_wall:5.1f}x"
        f"   warm/run {warm_ratio:4.2f}"
    )
    return row


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[1])
    parser.add_argument(
        "-b", "--benchmarks", nargs="+", default=list(DEFAULT_BENCHMARKS),
        choices=BENCHMARK_NAMES, metavar="NAME",
        help=f"workloads to measure (default {' '.join(DEFAULT_BENCHMARKS)})",
    )
    parser.add_argument(
        "-n", "--steps", type=int, default=DEFAULT_STEPS, metavar="N",
        help=f"instruction cap per run; all workloads halt below the "
             f"default ({DEFAULT_STEPS})",
    )
    parser.add_argument(
        "--repeats", type=int, default=3, metavar="R",
        help="process-time repeats of the blocks tier per workload; best is "
             "kept (default 3; the reference runs once)",
    )
    parser.add_argument(
        "--out", default=None, metavar="FILE",
        help="write the BENCH-schema snapshot JSON here",
    )
    parser.add_argument(
        "--assert-fast-active", action="store_true",
        help="fail unless the blocks tier is the session default and engages "
             "(guards CI against benching a misconfigured tier)",
    )
    parser.add_argument(
        "--check-speedup", action="store_true",
        help=f"fail unless the geomean blocks-vs-reference speedup clears the "
             f"repo floor ({SPEEDUP_FLOOR}x)",
    )
    parser.add_argument(
        "--speedup-floor", type=float, default=SPEEDUP_FLOOR, metavar="X",
        help=f"geomean floor used by --check-speedup (default {SPEEDUP_FLOOR})",
    )
    args = parser.parse_args(argv)

    if args.assert_fast_active:
        mode = default_dispatch()
        if mode != DISPATCH_TIERS[0]:
            print(
                f"error: the blocks tier is not the session default "
                f"(default={mode!r}); is $REPRO_DISPATCH forcing the reference?",
                file=sys.stderr,
            )
            return 1
        probe = Machine(get_workload("li").build(iters=1), block_threshold=0)
        probe.run(2_000)
        engaged = probe._engine is not None and block_stats()["block_insts"] > 0
        if not engaged:
            print("error: blocks tier did not engage on the probe run", file=sys.stderr)
            return 1
        print("blocks tier active (default 'blocks') and engaged")

    print(
        f"benching {len(args.benchmarks)} workload(s), full runs to halt "
        f"(cap {args.steps:,d}), best of {args.repeats} by process time:"
    )
    rows = {}
    for name in args.benchmarks:
        rows[name] = bench_benchmark(name, args.steps, args.repeats)
    blocks_gm = geomean(r["blocks_speedup_vs_reference"] for r in rows.values())
    print(f"geomean blocks speedup vs reference: {blocks_gm:.2f}x")

    if args.out:
        records = {}
        for name, r in rows.items():
            records[name] = {
                # BENCH-schema required keys (no timing sim here: ipc empty).
                "ipc": {},
                "wall_seconds": r["blocks_wall_seconds"] + r["reference_wall_seconds"],
                "instructions": r["instructions"],
                "instructions_per_second": r["blocks_instructions_per_second"],
                # Emulator sections consumed by bench_compare.py.
                "emulator_instructions_per_second": {
                    "blocks": r["blocks_instructions_per_second"],
                    "reference": r["reference_instructions_per_second"],
                },
                "blocks_speedup_vs_reference": r["blocks_speedup_vs_reference"],
                "warm_over_run_time_ratio": r["warm_over_run_time_ratio"],
            }
        manifest = build_manifest(
            config={
                "benchmarks": list(args.benchmarks),
                "steps": args.steps,
                "repeats": args.repeats,
            },
            argv=list(argv) if argv is not None else None,
            extra={
                "dispatch": default_dispatch(),
                "blocks": block_stats(),
                "bench": "emulator-tiers",
                "blocks_speedup_vs_reference_geomean": blocks_gm,
            },
        )
        run = f"emulator-{time.strftime('%Y%m%dT%H%M%SZ', time.gmtime())}"
        payload = bench_snapshot(run, records, manifest)
        out = Path(args.out)
        out.parent.mkdir(parents=True, exist_ok=True)
        atomic_write_json(out, payload)
        print(f"emulator snapshot written to {out}")

    if args.check_speedup:
        if blocks_gm < args.speedup_floor:
            print(
                f"error: blocks geomean {blocks_gm:.2f}x < "
                f"{args.speedup_floor}x floor",
                file=sys.stderr,
            )
            return 1
        print(f"speedup floor cleared (blocks >= {args.speedup_floor}x geomean)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
