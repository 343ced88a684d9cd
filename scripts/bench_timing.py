#!/usr/bin/env python
"""Benchmark the timing-layer fast path against its golden reference.

Measures, per configuration, ``TimingSimulator``'s simulated cycles per
wall-second under the pre-bound fast path vs. the reference one-pass
loop, and the ratio.  Each mode gets the input its production caller
gives it, built before the clock starts: the fast path the columnar
``Trace`` that ``collect_trace`` returns, the reference loop a list of
``TraceRecord``s.

Every measured configuration is first lockstep cross-checked on a slice
of the trace (full stats + event streams), so a snapshot can never
record throughput for a fast path that diverged from the golden model.

Writes a ``BENCH_<run>.json`` snapshot (same schema as the CLI's perf
snapshots, plus ``timing_*`` sections) for ``scripts/bench_compare.py``'s
timing regression gate::

    python scripts/bench_timing.py --out benchmarks/BENCH_timing.json
    python scripts/bench_timing.py --assert-fast-active --check-speedup

Speedup ratios are host-normalised (both modes run on the same machine
in the same process), so ``--check-speedup`` is meaningful on shared CI
runners where raw cycles/s would not be.
"""

from __future__ import annotations

import argparse
import math
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.core.config import (  # noqa: E402
    baseline_config,
    bitslice_config,
    simple_pipeline_config,
)
from repro.experiments import runner  # noqa: E402
from repro.obs.manifest import bench_snapshot, build_manifest  # noqa: E402
from repro.harness.atomicio import atomic_write_json  # noqa: E402
from repro.timing.fastpath import cross_check_timing, default_timing_mode  # noqa: E402
from repro.timing.simulator import TimingSimulator  # noqa: E402

#: Trace slice used for the pre-measurement lockstep parity check.
PARITY_SLICE = 3000

#: Geomean fast-vs-reference floor enforced by ``--check-speedup``.
SPEEDUP_FLOOR = 2.0


def timing_configs():
    """Configurations benched on the one-pass timestamp simulator."""
    return [
        baseline_config(),
        simple_pipeline_config(4),
        bitslice_config(2),
        bitslice_config(4),
    ]


def _best_wall(make_sim, trace, repeats: int):
    """Best-of-*repeats* wall seconds and the final run's stats."""
    best = math.inf
    stats = None
    for _ in range(repeats):
        sim = make_sim()
        t0 = time.perf_counter()
        stats = sim.run(trace)
        dt = time.perf_counter() - t0
        if dt < best:
            best = dt
    return best, stats


def bench_timing_layer(trace, repeats: int, verbose=print):
    """Per-config fast/reference cycles-per-second for TimingSimulator
    over *trace* (a :class:`~repro.emulator.trace.Trace`)."""
    rows = {}
    parity = trace[:PARITY_SLICE]
    records = list(trace)
    for cfg in timing_configs():
        cross_check_timing(cfg, parity)
        fast_wall, stats = _best_wall(
            lambda: TimingSimulator(cfg, mode="fast"), trace, repeats
        )
        ref_wall, _ = _best_wall(
            lambda: TimingSimulator(cfg, mode="reference"), records, repeats
        )
        rows[cfg.name] = {
            "cycles": stats.cycles,
            "ipc": stats.ipc,
            "fast_instructions_per_second": stats.instructions / fast_wall,
            "fast_cycles_per_second": stats.cycles / fast_wall,
            "reference_cycles_per_second": stats.cycles / ref_wall,
            "speedup": ref_wall / fast_wall,
            "fast_wall_seconds": fast_wall,
        }
        verbose(
            f"  timing   {cfg.name:<16s} {stats.cycles / fast_wall:10,.0f} cyc/s fast"
            f"  {stats.cycles / ref_wall:10,.0f} cyc/s ref   {ref_wall / fast_wall:5.2f}x"
        )
    return rows


def geomean(values) -> float:
    values = list(values)
    return math.exp(sum(math.log(v) for v in values) / len(values)) if values else 0.0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[1])
    parser.add_argument(
        "-b", "--benchmark", default="li",
        help="workload whose trace drives the measurement (default li)",
    )
    parser.add_argument(
        "-n", "--instructions", type=int, default=30_000, metavar="N",
        help="trace records to simulate (default 30000)",
    )
    parser.add_argument(
        "--repeats", type=int, default=3, metavar="R",
        help="wall-time repeats per (config, mode); best is kept (default 3)",
    )
    parser.add_argument(
        "--out", default=None, metavar="FILE",
        help="write the BENCH-schema snapshot JSON here",
    )
    parser.add_argument(
        "--assert-fast-active", action="store_true",
        help="fail unless the fast path is the session default "
             "(guards CI against silently benching the reference)",
    )
    parser.add_argument(
        "--check-speedup", action="store_true",
        help=f"fail unless the geomean TimingSimulator speedup clears the "
             f"repo floor ({SPEEDUP_FLOOR}x)",
    )
    args = parser.parse_args(argv)

    if args.assert_fast_active:
        mode = default_timing_mode()
        sim_mode = TimingSimulator(baseline_config()).mode
        if not (mode == sim_mode == "fast"):
            print(
                f"error: fast path not active (default={mode!r}, "
                f"TimingSimulator={sim_mode!r}); "
                f"is $REPRO_TIMING forcing the reference?",
                file=sys.stderr,
            )
            return 1
        print("fast path active (default mode 'fast')")

    print(
        f"collecting {args.instructions} trace records of {args.benchmark!r} ..."
    )
    trace = runner.collect_trace(args.benchmark, args.instructions)
    print(f"benching over {len(trace)} records, best of {args.repeats}:")

    timing_rows = bench_timing_layer(trace, args.repeats)
    timing_gm = geomean(r["speedup"] for r in timing_rows.values())
    print(f"geomean speedup: timing {timing_gm:.2f}x")

    if args.out:
        record = {
            # BENCH-schema required keys (over the whole timing sweep).
            "ipc": {name: r["ipc"] for name, r in timing_rows.items()},
            "wall_seconds": sum(r["fast_wall_seconds"] for r in timing_rows.values()),
            "instructions_per_second": geomean(
                r["fast_instructions_per_second"] for r in timing_rows.values()
            ),
            "instructions": len(trace),
            # Timing-layer sections consumed by bench_compare.py.
            "timing_cycles_per_second": {
                name: r["fast_cycles_per_second"] for name, r in timing_rows.items()
            },
            "timing_speedup": {name: r["speedup"] for name, r in timing_rows.items()},
            "timing_speedup_geomean": timing_gm,
        }
        manifest = build_manifest(
            config={
                "benchmark": args.benchmark,
                "instructions": args.instructions,
                "repeats": args.repeats,
            },
            argv=list(argv) if argv is not None else None,
            extra={"timing": default_timing_mode(), "bench": "timing-layer"},
        )
        run = f"timing-{time.strftime('%Y%m%dT%H%M%SZ', time.gmtime())}"
        payload = bench_snapshot(run, {args.benchmark: record}, manifest)
        out = Path(args.out)
        out.parent.mkdir(parents=True, exist_ok=True)
        atomic_write_json(out, payload)
        print(f"timing snapshot written to {out}")

    if args.check_speedup:
        if timing_gm < SPEEDUP_FLOOR:
            print(
                f"error: TimingSimulator geomean {timing_gm:.2f}x < {SPEEDUP_FLOOR}x floor",
                file=sys.stderr,
            )
            return 1
        print(f"speedup floor cleared (timing >= {SPEEDUP_FLOOR}x)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
