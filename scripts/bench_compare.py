#!/usr/bin/env python
"""Diff two BENCH_<run>.json perf snapshots and flag regressions.

Usage::

    python scripts/bench_compare.py BASELINE.json CURRENT.json
        [--threshold 0.10] [--strict-throughput]

IPC is a pure function of (trace, configuration), so any IPC drift
between snapshots is a *simulation semantics* change and is compared
strictly: a drop beyond ``--threshold`` (default 10%) on any benchmark
× config cell fails the comparison (exit status 1), which is what the
CI perf gate keys on.

Host throughput (``instructions_per_second``) varies with the machine
that produced the snapshot, so it is reported for information only
unless ``--strict-throughput`` is given (useful when both snapshots
come from the same runner class).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.obs.manifest import load_bench_snapshot  # noqa: E402


def iter_ipc_cells(snapshot: dict):
    """Yield ``(benchmark, config, ipc)`` for every cell in a snapshot."""
    for name, record in snapshot["benchmarks"].items():
        ipc = record["ipc"]
        if isinstance(ipc, dict):
            for config, value in ipc.items():
                yield name, config, float(value)
        else:
            yield name, "*", float(ipc)


def compare(baseline: dict, current: dict, threshold: float, strict_throughput: bool):
    """Return ``(report_lines, regressions)`` for two snapshots."""
    base_cells = {(b, c): v for b, c, v in iter_ipc_cells(baseline)}
    cur_cells = {(b, c): v for b, c, v in iter_ipc_cells(current)}
    lines: list[str] = []
    regressions: list[str] = []

    common = sorted(set(base_cells) & set(cur_cells))
    if not common and (base_cells or cur_cells):
        # Emulator-tier snapshots carry no IPC cells at all; only flag
        # when at least one snapshot actually had some to compare.
        regressions.append("no common benchmark/config cells between the snapshots")
    for cell in common:
        base, cur = base_cells[cell], cur_cells[cell]
        delta = (cur - base) / base if base else 0.0
        tag = ""
        if delta < -threshold:
            tag = "  <-- REGRESSION"
            regressions.append(
                f"{cell[0]}/{cell[1]}: IPC {base:.4f} -> {cur:.4f} ({delta:+.1%})"
            )
        lines.append(
            f"  {cell[0]:<10s} {cell[1]:<28s} IPC {base:8.4f} -> {cur:8.4f} ({delta:+6.1%}){tag}"
        )
    for cell in sorted(set(base_cells) - set(cur_cells)):
        lines.append(f"  {cell[0]:<10s} {cell[1]:<28s} dropped from current snapshot")
    for cell in sorted(set(cur_cells) - set(base_cells)):
        lines.append(f"  {cell[0]:<10s} {cell[1]:<28s} new in current snapshot")

    lines.append("")
    lines.extend(_trace_cache_lines(baseline, current))
    lines.extend(_supervisor_lines(baseline, current))
    for name in sorted(set(baseline["benchmarks"]) & set(current["benchmarks"])):
        base = float(baseline["benchmarks"][name].get("instructions_per_second", 0.0))
        cur = float(current["benchmarks"][name].get("instructions_per_second", 0.0))
        if base <= 0:
            continue
        delta = (cur - base) / base
        note = "(informational)" if not strict_throughput else ""
        if strict_throughput and delta < -threshold:
            note = "  <-- REGRESSION"
            regressions.append(
                f"{name}: host throughput {base:,.0f} -> {cur:,.0f} inst/s ({delta:+.1%})"
            )
        lines.append(
            f"  {name:<10s} host throughput {base:>12,.0f} -> {cur:>12,.0f} inst/s ({delta:+6.1%}) {note}"
        )
    lines.extend(
        _timing_lines(baseline, current, threshold, strict_throughput, regressions)
    )
    return lines, regressions


#: Timing-layer snapshot sections: (record key, row label, unit, gated).
#: Raw throughputs are host-bound and per-config speedups jitter beyond
#: 10% run-to-run, so both stay informational (or gate under
#: ``--strict-throughput``); the *geomean* speedups below are stable
#: (fast and reference share the host, noise averages out across
#: configs) and carry the default regression gate.
_TIMING_SECTIONS = (
    ("timing_cycles_per_second", "timing", "cyc/s", False),
    ("timing_speedup", "timing speedup", "x", False),
    ("emulator_instructions_per_second", "emulator", "inst/s", False),
)

#: Scalar per-benchmark keys: the geomean fast/reference speedup from
#: ``scripts/bench_timing.py`` (gated — averaged across configs, so
#: stable), plus the per-benchmark blocks-vs-reference emulator speedups
#: from ``scripts/bench_emulator.py`` (informational — single-workload
#: ratios jitter beyond 10% run-to-run; their geomean is gated from the
#: manifest instead, see ``_emulator_geomean_lines``).
_TIMING_GEOMEANS = (
    ("timing_speedup_geomean", "timing speedup (geomean)", True),
    ("blocks_speedup_vs_reference", "blocks speedup (vs reference)", False),
)


def _timing_lines(baseline, current, threshold, strict_throughput, regressions):
    """Compare the per-config timing-layer sections written by
    ``scripts/bench_timing.py`` (absent from plain CLI snapshots)."""
    lines = []
    for key, label, unit, gated in _TIMING_SECTIONS:
        base_cells = {}
        cur_cells = {}
        for cells, snap in ((base_cells, baseline), (cur_cells, current)):
            for name, record in snap["benchmarks"].items():
                section = record.get(key)
                if isinstance(section, dict):
                    for config, value in section.items():
                        cells[(name, config)] = float(value)
        common = sorted(set(base_cells) & set(cur_cells))
        if not common:
            continue
        if not lines:
            lines.append("")
        gate = gated or strict_throughput
        for cell in common:
            base, cur = base_cells[cell], cur_cells[cell]
            delta = (cur - base) / base if base else 0.0
            if unit == "x":
                shown = f"{base:8.2f}x -> {cur:8.2f}x"
            else:
                shown = f"{base:>12,.0f} -> {cur:>12,.0f} {unit}"
            note = "" if gate else "(informational)"
            if gate and delta < -threshold:
                note = "  <-- REGRESSION"
                regressions.append(
                    f"{cell[0]}/{cell[1]}: {label} {shown.strip()} ({delta:+.1%})"
                )
            lines.append(
                f"  {cell[0]:<10s} {cell[1]:<20s} {label:<17s} {shown} ({delta:+6.1%}) {note}"
            )
    for key, label, gated in _TIMING_GEOMEANS:
        for name in sorted(set(baseline["benchmarks"]) & set(current["benchmarks"])):
            base = baseline["benchmarks"][name].get(key)
            cur = current["benchmarks"][name].get(key)
            if base is None or cur is None or float(base) <= 0:
                continue
            base, cur = float(base), float(cur)
            delta = (cur - base) / base
            note = "" if gated else "(informational)"
            if gated and delta < -threshold:
                note = "  <-- REGRESSION"
                regressions.append(
                    f"{name}: {label} {base:.2f}x -> {cur:.2f}x ({delta:+.1%})"
                )
            lines.append(
                f"  {name:<10s} {label:<32s} {base:8.2f}x -> {cur:8.2f}x ({delta:+6.1%}) {note}"
            )
    lines.extend(_emulator_geomean_lines(baseline, current, threshold, regressions))
    return lines


def _emulator_geomean_lines(baseline, current, threshold, regressions):
    """Gate the geomean blocks-vs-reference speedup recorded in the
    manifest by ``scripts/bench_emulator.py`` (absent from other
    snapshots).  Snapshots that carry only the retired blocks-vs-fast
    ratio (``blocks_speedup_geomean``) are never compared with it."""
    key = "blocks_speedup_vs_reference_geomean"
    base = baseline.get("manifest", {}).get(key)
    cur = current.get("manifest", {}).get(key)
    if base is None or cur is None or float(base) <= 0:
        return []
    base, cur = float(base), float(cur)
    delta = (cur - base) / base
    note = ""
    if delta < -threshold:
        note = "  <-- REGRESSION"
        regressions.append(
            f"blocks speedup vs reference (geomean) {base:.2f}x -> {cur:.2f}x ({delta:+.1%})"
        )
    return [
        f"  {'*':<10s} {'blocks speedup vs ref (geomean)':<32s} "
        f"{base:8.2f}x -> {cur:8.2f}x ({delta:+6.1%}) {note}"
    ]


def _trace_cache_lines(baseline: dict, current: dict) -> list[str]:
    """Informational trace-cache hit/miss comparison from the manifests.

    A warm run that suddenly reports misses means the cache key changed
    (emulator semantics, workload source, seed) — worth knowing when
    reading a wall-clock delta, though never a gate by itself.
    """
    lines = []
    pairs = []
    for label, snap in (("baseline", baseline), ("current", current)):
        cache = snap.get("manifest", {}).get("trace_cache") or {}
        hits = int(cache.get("hits", 0))
        misses = int(cache.get("misses", 0))
        total = hits + misses
        rate = f"{hits / total:.0%}" if total else "n/a"
        state = "enabled" if cache.get("enabled") else "disabled"
        pairs.append((hits, misses))
        lines.append(
            f"  {label:<8s} trace cache {state}: {hits} hits / {misses} misses "
            f"(hit rate {rate})"
        )
    (bh, bm), (ch, cm) = pairs
    if (bh + bm) and (ch + cm):
        lines.append(
            f"  {'delta':<8s} trace cache: {ch - bh:+d} hits, {cm - bm:+d} misses "
            f"(informational)"
        )
    lines.append("")
    return lines


def _supervisor_lines(baseline: dict, current: dict) -> list[str]:
    """Informational sweep-supervision comparison from the manifests.

    Retries and respawns both add wall time (re-executed cells, worker
    restart latency), and a resumed run executes fewer cells than a cold
    one — all of which skews throughput numbers.  Surfacing the counters
    next to the perf delta explains such skews without gating on them:
    supervision overhead is workload- and fault-dependent by design.
    """
    lines = []
    found = False
    for label, snap in (("baseline", baseline), ("current", current)):
        sup = snap.get("manifest", {}).get("supervisor") or {}
        if not sup:
            lines.append(f"  {label:<8s} supervisor: no supervised sweep in snapshot")
            continue
        found = True
        rate = float(sup.get("resume_hit_rate", 0.0))
        lines.append(
            f"  {label:<8s} supervisor: {sup.get('cells_executed', 0)}/"
            f"{sup.get('cells_total', 0)} cells executed, "
            f"{sup.get('resume_hits', 0)} resumed ({rate:.0%} journal hit rate), "
            f"{sup.get('respawns', 0)} respawns, {sup.get('retries', 0)} retries, "
            f"{sup.get('quarantined', 0)} quarantined (informational)"
        )
    if not found:
        return []
    lines.append("")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("baseline", help="baseline BENCH_<run>.json")
    parser.add_argument("current", help="current BENCH_<run>.json")
    parser.add_argument(
        "--threshold", type=float, default=0.10, metavar="FRACTION",
        help="relative drop that counts as a regression (default 0.10)",
    )
    parser.add_argument(
        "--strict-throughput", action="store_true",
        help="also gate on host inst/s (only meaningful on identical hosts)",
    )
    args = parser.parse_args(argv)

    try:
        baseline = load_bench_snapshot(args.baseline)
        current = load_bench_snapshot(args.current)
    except (ValueError, OSError) as exc:
        print(f"error: invalid bench snapshot: {exc}", file=sys.stderr)
        return 2
    print(f"baseline: {baseline['run']}  (git {baseline['manifest'].get('git_sha')})")
    print(f"current:  {current['run']}  (git {current['manifest'].get('git_sha')})")
    lines, regressions = compare(
        baseline, current, args.threshold, args.strict_throughput
    )
    print("\n".join(lines))
    if regressions:
        print(f"\n{len(regressions)} regression(s) beyond {args.threshold:.0%}:", file=sys.stderr)
        for r in regressions:
            print(f"  {r}", file=sys.stderr)
        return 1
    print(f"\nOK: no IPC regression beyond {args.threshold:.0%}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
