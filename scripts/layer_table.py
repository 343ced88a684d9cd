#!/usr/bin/env python
"""Render docs/performance.md's layer table from perfbench's traced runs.

Usage::

    python3 perfbench/run.py --workload report_cold --seed 1 --seconds 0 --trace 1
    python3 perfbench/run.py --workload report_warm --seed 1 --seconds 0 --trace 1
    python3 perfbench/run.py --workload sampled_sweep --seed 3 --seconds 0 --trace 1
    python scripts/layer_table.py [--results DIR]

Reads the newest traced run record of each workload
(``<workload>-seed*-trace1-*.json`` under ``--results``, default
``.bench_build/perfbench/results``) and prints one Markdown table: a row
per layer, a column per workload, each cell the layer's self time as a
share of that run's traced wall (``traced_wall.s``).  Imports run before
the traced wall and are shown against it.  A layer the run never entered
reads ``—``.  The line above the table names the runs and their host.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

RESULTS = Path(__file__).resolve().parent.parent / ".bench_build" / "perfbench" / "results"

#: Table rows: a label, then one or two groups of ledger metrics; a
#: group's metrics are summed into one share, and two groups render as
#: ``a / b``.
ROWS = (
    ("skip-point lookup (`workloads.calibrate`)", ("workloads.calibrate.s",)),
    ("assembly (`isa.assemble`)", ("isa.assemble.s",)),
    ("init skip / fast-forward (`emulator.run`)", ("emulator.run.s",)),
    ("functional warming (`emulator.run_warm`)", ("emulator.run_warm.s",)),
    ("trace construction (`emulator.trace`)", ("emulator.trace.s",)),
    ("timing simulation (`timing.simulate`)", ("timing.simulate.s",)),
    ("characterization (Figures 2/4/6)",
     ("characterization.lsq.s", "characterization.tags.s", "characterization.branches.s")),
    ("trace-cache read / write",
     ("tracefile.load.s", "tracefile.unpack.s"), ("tracefile.pack.s", "tracefile.save.s")),
    ("sampling bookkeeping / worker start", ("sampling.sample.s",), ("supervisor.worker_start.s",)),
    ("journal flushes (`journal.flush`)", ("journal.flush.s",)),
    ("imports", ("import.s",)),
    ("unattributed", ("unattributed.s",)),
)


def newest_records(results: Path) -> dict[str, dict]:
    """Workload → its newest traced run record under *results*."""
    records: dict[str, tuple[float, dict]] = {}
    for path in results.glob("*-seed*-trace1-*.json"):
        record = json.loads(path.read_text())
        mtime = path.stat().st_mtime
        if record.get("layers") and mtime >= records.get(record["workload"], (0.0,))[0]:
            records[record["workload"]] = (mtime, record)
    return {name: records[name][1] for name in sorted(records)}


def share(seconds: float, wall: float) -> str:
    """*seconds* as a percentage of *wall*, to two significant figures."""
    if not seconds:
        return "—"
    percent = 100 * seconds / wall
    digits = 0 if abs(percent) >= 9.95 else 1 if abs(percent) >= 0.095 else 2
    return f"{percent:.{digits}f}%"


def render(records: dict[str, dict]) -> str:
    """The caption line and the Markdown layer table."""
    runs = ", ".join(f"{name} seed {r['seed']}" for name, r in records.items())
    host = "; ".join(sorted({
        f"{h['nproc']}-vCPU {h['cpu']}, CPython {h['python']}, numpy {h['numpy']}"
        for h in (r["host"] for r in records.values())
    }))
    lines = [
        f"Traced runs: {runs} ({host}).",
        "",
        "| layer | " + " | ".join(
            f"`{name}` ({r['layers']['traced_wall.s']:.2f} s)" for name, r in records.items()
        ) + " |",
        "|---|" + "---:|" * len(records),
    ]
    for label, *groups in ROWS:
        cells = []
        for r in records.values():
            layers = r["layers"]
            wall = layers["traced_wall.s"]
            cells.append(" / ".join(
                share(sum(layers.get(metric, 0.0) for metric in group), wall) for group in groups
            ))
        lines.append(f"| {label} | " + " | ".join(cells) + " |")
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--results", type=Path, default=RESULTS,
                        help="directory of perfbench run records (default %(default)s)")
    args = parser.parse_args(argv)
    records = newest_records(args.results)
    if not records:
        print(f"no traced perfbench run record under {args.results}", file=sys.stderr)
        return 1
    print(render(records))
    return 0


if __name__ == "__main__":
    sys.exit(main())
