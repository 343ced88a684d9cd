"""``repro-profile``: guest hot-path reports from a guest profile.

Renders the output of the guest profiler (``--guest-profile`` /
:mod:`repro.obs.guestprof`) as human-readable reports:

* **hot-function and hot-line tables** — retired-instruction share and
  per-line CPI, with each line's cycles decomposed into the same CPI
  components the ``SimStats`` stack reports (the per-line stacks sum
  exactly to the run's measured cycles);
* **annotated disassembly** — every instruction of the hot functions
  with its retired share and cycle components alongside the assembly;
* **collapsed-stack flamegraphs** — ``stack count`` lines keyed on the
  static call graph (:func:`repro.emulator.analysis.static_call_graph`),
  ready for ``flamegraph.pl`` or speedscope.

Two input modes: ``--in profile.json`` loads a profile saved by
``repro-experiment ... --guest-profile-out`` (or :func:`write_profile`);
without ``--in`` the tool collects one itself by running the named
benchmarks through the emulator and timing simulator.

Examples::

    repro-profile -b gzip -n 30000
    repro-profile -b li --config bitslice4 --annotate
    repro-profile --in profile.json --flamegraph li.folded
    repro-profile -b mcf --out profile.json
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from repro.emulator.analysis import collapsed_stacks, static_call_graph, write_collapsed_stacks
from repro.isa.disassembler import disassemble
from repro.obs.attribution import COMPONENT_KEYS
from repro.obs.guestprof import (
    SHORTFALL_PC,
    end_guest_profile,
    load_profile,
    start_guest_profile,
    write_profile,
)
from repro.workloads import BENCHMARK_NAMES

#: Default benchmark for self-collected profiles (small and quick).
DEFAULT_BENCHMARKS = ("li",)


def _parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="repro-profile",
        description="Guest hot-path report: hot functions/lines with per-line "
        "CPI stacks, annotated disassembly, and collapsed-stack flamegraphs.",
    )
    p.add_argument(
        "--in", dest="profile_in", default=None, metavar="FILE",
        help="load a saved guest profile (from --guest-profile-out) instead "
        "of collecting one",
    )
    p.add_argument(
        "-b", "--benchmarks", nargs="+", default=None, metavar="NAME",
        help=f"benchmarks to profile (default {' '.join(DEFAULT_BENCHMARKS)}; "
        f"all = {' '.join(BENCHMARK_NAMES)})",
    )
    p.add_argument(
        "-n", "--instructions", type=int, default=30_000,
        help="measured instructions per benchmark (default 30000)",
    )
    p.add_argument(
        "--warmup", type=int, default=10_000,
        help="warmup instructions before the measured window (default 10000)",
    )
    p.add_argument(
        "--config", default="bitslice4",
        help="machine config for cycle attribution (default bitslice4; "
        "available: ideal pipe2 pipe4 bitslice2 bitslice4)",
    )
    p.add_argument(
        "--input-profile", dest="input_profile", default="ref",
        choices=("test", "train", "ref"),
        help="workload input footprint, also used to rebuild the program "
        "image for disassembly (default ref)",
    )
    p.add_argument(
        "--top", type=int, default=10, metavar="N",
        help="hot lines shown per benchmark (default 10)",
    )
    p.add_argument(
        "--annotate", action="store_true",
        help="append annotated disassembly of the hot functions",
    )
    p.add_argument(
        "--annotate-min", type=float, default=1.0, metavar="PCT",
        help="annotate functions with at least PCT%% of retirements (default 1.0)",
    )
    p.add_argument(
        "--flamegraph", default=None, metavar="FILE",
        help="write collapsed stacks (flamegraph.pl / speedscope format)",
    )
    p.add_argument(
        "--flame-weight", choices=("counts", "cycles"), default="counts",
        help="flamegraph weight: retired counts (default) or attributed cycles",
    )
    p.add_argument(
        "--out", default=None, metavar="FILE",
        help="also save the profile as JSON (self-collection mode)",
    )
    return p


def _collect_profile(args):
    """Run the benchmarks under an active collector; returns it ended."""
    from repro.experiments.runner import collect_trace
    from repro.experiments.sweep import parse_configs
    from repro.timing.simulator import simulate

    config = parse_configs([args.config])[0]
    names = tuple(args.benchmarks or DEFAULT_BENCHMARKS)
    start_guest_profile()
    try:
        for name in names:
            trace = collect_trace(
                name, args.instructions + args.warmup, profile=args.input_profile
            )
            simulate(config, trace, warmup=args.warmup)
    finally:
        collector = end_guest_profile()
    return collector


def _program_for(name: str, input_profile: str):
    """The program image behind benchmark *name* (None when unknown)."""
    if name not in BENCHMARK_NAMES:
        return None
    from repro.workloads import get_workload

    return get_workload(name).build(profile=input_profile)


def _line_text(program, pc: int) -> str:
    """Disassembly for *pc*, or a placeholder outside the text segment."""
    if pc == SHORTFALL_PC:
        return "<end-of-run shortfall>"
    if program is None:
        return "?"
    index = (pc - program.text_base) // 4
    if 0 <= index < len(program.text):
        try:
            return disassemble(program.text[index], pc)
        except Exception:
            return f".word {program.text[index]:#010x}"
    return "?"


def _components_summary(parts, limit: int = 2) -> str:
    """Top cycle components of one per-line stack, e.g. ``mem 38% base 52%``."""
    total = sum(parts)
    if not total:
        return ""
    pairs = sorted(zip(COMPONENT_KEYS, parts), key=lambda kv: -kv[1])
    out = [f"{key} {v / total:.0%}" for key, v in pairs[:limit] if v]
    return " ".join(out)


def _function_rows(graph, prof):
    """Aggregate per-function retired/cycles rows, hottest first."""
    rows: dict[object, dict] = {}
    for pc, count in prof.counts.items():
        entry = graph.function_of(pc) if graph is not None else None
        rec = rows.setdefault(entry, {"retired": 0, "cycles": 0})
        rec["retired"] += count
    for pc, parts in prof.cycles.items():
        entry = graph.function_of(pc) if graph is not None else None
        rec = rows.setdefault(entry, {"retired": 0, "cycles": 0})
        rec["cycles"] += sum(parts)
    out = []
    for entry, rec in rows.items():
        name = "?" if entry is None or graph is None else graph.names[entry]
        out.append((name, entry, rec["retired"], rec["cycles"]))
    out.sort(key=lambda row: (-row[2], -row[3], row[0]))
    return out


def _render_benchmark(name, prof, program, top, annotate, annotate_min):
    lines = []
    total = sum(prof.counts.values()) or 1
    cpi = prof.cycles_total / prof.retired if prof.retired else 0.0
    lines.append(f"=== {name} ===")
    lines.append(
        f"retired {prof.retired}  profiled {sum(prof.counts.values())} retirements"
        + (f"  cycles {prof.cycles_total}  CPI {cpi:.3f}" if prof.cycles_total else "")
    )
    graph = static_call_graph(program) if program is not None else None

    funcs = _function_rows(graph, prof)
    if funcs:
        lines.append("")
        lines.append("hot functions (retirements):")
        lines.append(f"  {'function':<24} {'retired':>10} {'share':>7} {'cycles':>10} {'CPI':>6}")
        for fname, _entry, retired, cycles in funcs[:top]:
            fcpi = f"{cycles / retired:6.2f}" if retired and cycles else "     -"
            lines.append(
                f"  {fname:<24} {retired:>10} {retired / total:>6.1%} "
                f"{cycles:>10} {fcpi}"
            )

    hot = sorted(prof.counts.items(), key=lambda kv: (-kv[1], kv[0]))[:top]
    if hot:
        lines.append("")
        lines.append(f"hot lines (top {len(hot)}):")
        cum = 0
        for pc, count in hot:
            cum += count
            parts = prof.cycles.get(pc)
            lcpi = f"{sum(parts) / count:6.2f}" if parts and count else "     -"
            comp = _components_summary(parts) if parts else ""
            where = f"{pc:#010x}" if pc >= 0 else f"{pc:>10}"
            lines.append(
                f"  {where}  {count / total:>6.1%}  cum {cum / total:>6.1%}  "
                f"CPI {lcpi}  {_line_text(program, pc):<28} {comp}"
            )

    if annotate and graph is not None:
        threshold = annotate_min / 100.0
        for fname, entry, retired, _cycles in funcs:
            if entry is None or retired / total < threshold:
                continue
            lines.append("")
            lines.append(f"--- {fname} ({retired / total:.1%} of retirements) ---")
            i = graph.entries.index(entry)
            stop = graph.entries[i + 1] if i + 1 < len(graph.entries) else graph.limit
            for pc in range(entry, stop, 4):
                count = prof.counts.get(pc, 0)
                parts = prof.cycles.get(pc)
                share = f"{count / total:>6.1%}" if count else "      "
                lcpi = f"{sum(parts) / count:5.2f}" if parts and count else "     "
                comp = _components_summary(parts) if parts else ""
                lines.append(
                    f"  {pc:#010x}  {share}  {lcpi}  "
                    f"{_line_text(program, pc):<28} {comp}"
                )
    return "\n".join(lines)


def _flame_counts(prof, weight: str) -> dict[int, int]:
    if weight == "cycles":
        return {pc: sum(parts) for pc, parts in prof.cycles.items() if sum(parts)}
    return dict(prof.counts)


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    for name in args.benchmarks or ():
        if name not in BENCHMARK_NAMES:
            print(
                f"unknown benchmark {name!r}; choose from {', '.join(BENCHMARK_NAMES)}",
                file=sys.stderr,
            )
            return 2

    if args.profile_in:
        try:
            collector = load_profile(args.profile_in)
        except (OSError, ValueError) as exc:
            print(f"cannot load {args.profile_in}: {exc}", file=sys.stderr)
            return 2
    else:
        collector = _collect_profile(args)

    if args.out:
        out = Path(args.out)
        out.parent.mkdir(parents=True, exist_ok=True)
        write_profile(out, collector)
        print(f"profile saved to {out}", file=sys.stderr)

    wanted = set(args.benchmarks) if args.benchmarks and args.profile_in else None
    names = [
        n for n in sorted(collector.benchmarks)
        if wanted is None or n in wanted
    ]
    if not names:
        print("profile contains no benchmarks to report", file=sys.stderr)
        return 1

    programs = {n: _program_for(n, args.input_profile) for n in names}
    sections = [
        _render_benchmark(
            n, collector.benchmarks[n], programs[n],
            args.top, args.annotate, args.annotate_min,
        )
        for n in names
    ]
    print("\n\n".join(sections))

    from repro.emulator.blocks import telemetry

    jit = telemetry()
    if jit is not None:
        s = jit["stats"]
        print(
            "\ncompiler telemetry: "
            f"{s['blocks_compiled']} blocks compiled "
            f"({s['superblocks']} superblocks, {s['cache_binds']} cache binds), "
            f"{s['block_execs']} execs, side-exit rate {jit['side_exit_rate']:.1%}, "
            f"block-inst fraction {jit['block_inst_fraction']:.1%}"
        )

    if args.flamegraph:
        stacks: dict[str, int] = {}
        for n in names:
            program = programs[n]
            prof = collector.benchmarks[n]
            weights = _flame_counts(prof, args.flame_weight)
            if program is None:
                folded = {"?": sum(weights.values())} if weights else {}
            else:
                folded = collapsed_stacks(static_call_graph(program), weights)
            for key, count in folded.items():
                full = f"{n};{key}"
                stacks[full] = stacks.get(full, 0) + count
        out = Path(args.flamegraph)
        out.parent.mkdir(parents=True, exist_ok=True)
        written = write_collapsed_stacks(out, stacks)
        print(
            f"{written} collapsed stacks written to {out} "
            f"(weight: {args.flame_weight})",
            file=sys.stderr,
        )
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
