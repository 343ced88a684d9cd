"""Steadiness check: run the benchmark over several seeds and report spreads.

Usage (from the repository root)::

    python3 perfbench/steady.py --seeds 1 2 3 4 5 6 7 8 9 10 [--workloads ...]

Runs ``run.py`` once per (seed, workload), interleaving the workloads within
each seed so that drift in host speed hits them all alike.  For every
end-to-end metric it prints the median, the quartiles and the spread --
the distance between the first and third quartile as a share of the median
-- next to the metric's bound from ``BENCHMARK.json``.  The raw results go
to ``.bench_build/perfbench/steady-<time>.json``.
"""

import sys

sys.dont_write_bytecode = True

import argparse  # noqa: E402
import json  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402

from run import HERE, ROOT, WORK  # noqa: E402


def spread(values: list[float]) -> tuple[float, float, float, float]:
    """(median, first quartile, third quartile, (q3 - q1) / median)."""
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--workloads", nargs="+", default=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    args = parser.parse_args()

    runs: dict[str, list[dict]] = {w: [] for w in args.workloads}
    for seed in args.seeds:
        for workload in args.workloads:
            t0 = time.monotonic()
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed",
                 str(seed), "--seconds", str(args.seconds), "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True, timeout=600,
            )
            took = time.monotonic() - t0
            if proc.returncode != 0:
                print(proc.stderr, file=sys.stderr)
                raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}")
            result = json.loads(proc.stdout.splitlines()[-1])
            result["run_s"] = took
            runs[workload].append(result)
            values = {k: round(v["value"], 4) for k, v in result["metrics"].items()}
            print(f"seed {seed} {workload}: {took:.1f}s failed={result['failed']}/"
                  f"{result['attempted']} {values}", flush=True)

    print(f"\n{'workload':14} {'metric':12} {'median':>10} {'q1':>10} {'q3':>10} "
          f"{'spread':>7} {'bound':>6}")
    for workload, results in runs.items():
        for metric in spec["end_to_end"]:
            values = [r["metrics"][metric["name"]]["value"] for r in results]
            if len(values) < 2:
                continue
            med, q1, q3, s = spread(values)
            flag = "" if s < metric["bound"] / 3 else "  <-- over a third of the bound"
            print(f"{workload:14} {metric['name']:12} {med:10.4f} {q1:10.4f} {q3:10.4f} "
                  f"{s:7.4f} {metric['bound']:6.3f}{flag}")
        took = [r["run_s"] for r in results]
        print(f"{workload:14} run time: median {statistics.median(took):.1f}s, "
              f"max {max(took):.1f}s; failed {sum(r['failed'] for r in results)}")
    out = WORK / f"steady-{time.strftime('%Y%m%dT%H%M%S')}.json"
    out.write_text(json.dumps(runs, indent=2))
    print(f"raw results: {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
