"""Paper-fidelity regression reports (``repro-report``).

:func:`run_fidelity` regenerates Figures 1, 2, 4, 6, 11, 12 and Table 1
at a configurable budget, scores each paper claim against a tolerance band
(:class:`FigureCheck`), decomposes the headline configurations into CPI
stacks, folds in run-over-run trend deltas from ``BENCH_*.json`` perf
snapshots, and renders the whole thing as markdown or a self-contained
HTML page.  CI runs it after the perf-smoke job and fails on
out-of-tolerance figures.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections.abc import Sequence
from dataclasses import dataclass, field
from pathlib import Path

# Every report reads traces and runs the Figure 2/4 kernels, which
# import numpy on first use.  Importing it here keeps that cost in the
# report's set-up rather than in its first figure's run.
import numpy  # noqa: F401

#: Default budget for a fidelity run — big enough that every band below
#: holds, small enough for CI (seconds per benchmark, not minutes).
FIDELITY_INSTRUCTIONS = 4_000
FIDELITY_WARMUP = 1_000
FIDELITY_BENCHMARKS: tuple[str, ...] = ("bzip", "li", "mcf")


@dataclass(frozen=True)
class PaperTarget:
    """One claim from the paper with its acceptance band.

    *lo*/*hi* bound the reproduced value (``None`` = unbounded on that
    side); *paper* records what the paper itself reports, so the
    report reads as "claim / our number / their number" per row.
    """

    figure: str
    claim: str
    lo: float | None
    hi: float | None
    paper: str

    def band(self) -> str:
        lo = "-inf" if self.lo is None else f"{self.lo:g}"
        hi = "+inf" if self.hi is None else f"{self.hi:g}"
        return f"[{lo}, {hi}]"


@dataclass(frozen=True)
class FigureCheck:
    """A reproduced value scored against its :class:`PaperTarget`.

    Exact results score the point value against the band.  Results that
    carry error bars (*ci*, an IPC-style 95% confidence interval from
    the statistical-sampling engine) score by **CI overlap** instead: a
    sampled estimate whose interval intersects the acceptance band is in
    tolerance even when its point sits just outside — and conversely a
    tight interval wholly outside the band fails no matter how close the
    point is.  That is the statistically honest reading of a sampled
    number: the claim is about the interval, not the point.
    """

    target: PaperTarget
    value: float
    ci: tuple[float, float] | None = None

    @property
    def ok(self) -> bool:
        t = self.target
        if self.ci is not None:
            lo, hi = self.ci
            if t.lo is not None and hi < t.lo:
                return False
            if t.hi is not None and lo > t.hi:
                return False
            return True
        if t.lo is not None and self.value < t.lo:
            return False
        if t.hi is not None and self.value > t.hi:
            return False
        return True

    def value_cell(self) -> str:
        """The value as rendered in report tables (± interval if any)."""
        if self.ci is None:
            return f"{self.value:.4g}"
        return f"{self.value:.4g} [{self.ci[0]:.4g}, {self.ci[1]:.4g}]"

    def to_dict(self) -> dict:
        return {
            "figure": self.target.figure,
            "claim": self.target.claim,
            "value": self.value,
            "ci": list(self.ci) if self.ci is not None else None,
            "lo": self.target.lo,
            "hi": self.target.hi,
            "paper": self.target.paper,
            "ok": self.ok,
        }


@dataclass
class FidelityReport:
    """One fidelity run: scored checks + CPI stacks + perf trend."""

    run: str = "fidelity"
    benchmarks: tuple[str, ...] = ()
    instructions: int = 0
    warmup: int = 0
    checks: list[FigureCheck] = field(default_factory=list)
    #: checked CPI stacks for the headline configurations.
    stacks: list = field(default_factory=list)
    #: chronological perf-snapshot trend rows (oldest first).
    trend: list[dict] = field(default_factory=list)
    #: campaign-health counters: trace-cache corruption and supervisor
    #: retry/quarantine/respawn totals, from this run plus the scanned
    #: ``BENCH_*.json`` manifests — so data integrity and orchestration
    #: churn ship with the claim scores.
    campaign: dict = field(default_factory=dict)
    #: JIT-tier compiler telemetry: blocks/superblocks compiled, side-exit
    #: and fault-replay rates, code-cache reuse — from the scanned
    #: ``BENCH_*.json`` manifests only, never this process's live
    #: counters (they carry host compile time, so the report would differ
    #: run to run).  Empty when no scanned snapshot recorded the blocks
    #: tier compiling, and the section is then omitted entirely.
    compiler: dict = field(default_factory=dict)
    #: non-fatal issues hit while collecting (bad snapshots etc.).
    warnings: list[str] = field(default_factory=list)

    @property
    def failed(self) -> list[FigureCheck]:
        return [c for c in self.checks if not c.ok]

    @property
    def ok(self) -> bool:
        return not self.failed

    def to_dict(self) -> dict:
        return {
            "run": self.run,
            "benchmarks": list(self.benchmarks),
            "instructions": self.instructions,
            "warmup": self.warmup,
            "ok": self.ok,
            "checks": [c.to_dict() for c in self.checks],
            "stacks": [s.to_dict() for s in self.stacks],
            "trend": self.trend,
            "campaign": dict(self.campaign),
            "compiler": dict(self.compiler),
            "warnings": list(self.warnings),
        }

    # ------------------------------------------------------------ markdown

    def render_markdown(self) -> str:
        from repro.obs.attribution import render_stacks

        passed = len(self.checks) - len(self.failed)
        lines = [
            f"# Paper-fidelity report — `{self.run}`",
            "",
            f"Reproduction of *Exploiting Partial Operand Knowledge* "
            f"(ICPP 2003) checked on benchmarks "
            f"{', '.join(f'`{b}`' for b in self.benchmarks)} "
            f"({self.instructions} measured instructions, "
            f"{self.warmup} warmup).",
            "",
            f"**{passed}/{len(self.checks)} checks in tolerance**"
            + ("" if self.ok else " — **FIDELITY REGRESSION**"),
            "",
            "| status | figure | claim | value | band | paper |",
            "|--------|--------|-------|-------|------|-------|",
        ]
        for c in self.checks:
            lines.append(
                f"| {'PASS' if c.ok else '**FAIL**'} | {c.target.figure} "
                f"| {c.target.claim} | {c.value_cell()} | {c.target.band()} "
                f"| {c.target.paper} |"
            )
        if self.stacks:
            lines += [
                "",
                "## CPI stacks",
                "",
                "Cycle attribution for the headline configurations "
                "(components sum exactly to measured cycles; "
                "see `docs/observability.md`).",
                "",
                "```",
                render_stacks(self.stacks),
                "```",
            ]
        if self.trend:
            lines += [
                "",
                "## Perf-snapshot trend",
                "",
                "| run | mean IPC | ΔIPC | wall s | Δwall | cache hit rate |",
                "|-----|----------|------|--------|-------|----------------|",
            ]
            prev = None
            for row in self.trend:
                d_ipc = d_wall = "—"
                if prev is not None and prev["mean_ipc"] and row["mean_ipc"]:
                    d_ipc = f"{row['mean_ipc'] / prev['mean_ipc'] - 1:+.1%}"
                if prev is not None and prev["wall_seconds"]:
                    d_wall = f"{row['wall_seconds'] / prev['wall_seconds'] - 1:+.1%}"
                hit = "—" if row["cache_hit_rate"] is None else f"{row['cache_hit_rate']:.0%}"
                lines.append(
                    f"| {row['run']} | {row['mean_ipc']:.3f} | {d_ipc} "
                    f"| {row['wall_seconds']:.2f} | {d_wall} | {hit} |"
                )
                prev = row
        if self.campaign:
            h = self.campaign
            verdict = "clean" if h.get("clean") else "**DEGRADED**"
            lines += [
                "",
                "## Campaign health",
                "",
                f"Data integrity and orchestration churn for this run plus "
                f"{h.get('snapshots_scanned', 0)} perf snapshot(s): {verdict}.",
                "",
                "| counter | value |",
                "|---------|-------|",
                f"| corrupt trace-cache entries | {h.get('cache_corrupt_entries', 0)} |",
                f"| supervisor retries | {h.get('supervisor_retries', 0)} |",
                f"| quarantined cells | {h.get('supervisor_quarantined', 0)} |",
                f"| worker respawns | {h.get('supervisor_respawns', 0)} |",
                f"| corrupt worker results | {h.get('supervisor_corrupt_results', 0)} |",
                f"| straggler cells | {h.get('straggler_cells', 0)} |",
                f"| retry-storm cells | {h.get('retry_storm_cells', 0)} |",
            ]
        if self.compiler:
            t = self.compiler
            lines += [
                "",
                "## Compiler telemetry",
                "",
                f"Block-compiled dispatch tier, from this run plus "
                f"{t.get('snapshots_scanned', 0)} perf snapshot(s) that "
                f"used it.",
                "",
                "| counter | value |",
                "|---------|-------|",
                f"| blocks compiled | {t.get('blocks_compiled', 0)} |",
                f"| superblocks | {t.get('superblocks', 0)} |",
                f"| code-cache binds | {t.get('cache_binds', 0)} |",
                f"| compiled-block executions | {t.get('block_execs', 0)} |",
                f"| side-exit rate | {t.get('side_exit_rate', 0.0):.2%} |",
                f"| fault replays | {t.get('replays', 0)} |",
                f"| block-instruction fraction | {t.get('block_inst_fraction', 0.0):.1%} |",
                f"| compile wall seconds | {t.get('compile_seconds', 0.0):.3f} |",
            ]
        if self.warnings:
            lines += ["", "## Warnings", ""]
            lines += [f"- {w}" for w in self.warnings]
        lines.append("")
        return "\n".join(lines)

    # ---------------------------------------------------------------- html

    def render_html(self) -> str:
        from repro.obs.attribution import COMPONENT_KEYS, DESCRIPTIONS

        palette = {
            "base": "#4e79a7", "branch_recovery": "#e15759",
            "ruu_stall": "#f28e2b", "lsq_stall": "#ffbe7d",
            "lsd_wait": "#59a14f", "ptm_replay": "#b07aa1",
            "memory": "#9c755f", "slice_wait": "#edc948",
        }
        passed = len(self.checks) - len(self.failed)
        rows = []
        for c in self.checks:
            cls = "pass" if c.ok else "fail"
            rows.append(
                f"<tr class='{cls}'><td>{'PASS' if c.ok else 'FAIL'}</td>"
                f"<td>{_esc(c.target.figure)}</td><td>{_esc(c.target.claim)}</td>"
                f"<td>{_esc(c.value_cell())}</td><td>{_esc(c.target.band())}</td>"
                f"<td>{_esc(c.target.paper)}</td></tr>"
            )
        bars = []
        if self.stacks:
            worst = max(s.total_cpi for s in self.stacks) or 1.0
            for s in self.stacks:
                label = f"{s.benchmark}/{s.config_name}" if s.benchmark else s.config_name
                segs = []
                for key in COMPONENT_KEYS:
                    if not s.cycles or not s.components[key]:
                        continue
                    pct = 100.0 * (s.components[key] / s.cycles) * (s.total_cpi / worst)
                    segs.append(
                        f"<span class='seg' style='width:{pct:.2f}%;"
                        f"background:{palette[key]}' title='{_esc(key)}: "
                        f"{s.components[key]} cycles ({s.fraction(key):.1%}) — "
                        f"{_esc(DESCRIPTIONS[key])}'></span>"
                    )
                bars.append(
                    f"<div class='row'><div class='label'>{_esc(label)} "
                    f"<small>CPI {s.total_cpi:.3f}</small></div>"
                    f"<div class='bar'>{''.join(segs)}</div></div>"
                )
            legend = "".join(
                f"<span class='key'><span class='swatch' "
                f"style='background:{palette[k]}'></span>{_esc(k)}</span>"
                for k in COMPONENT_KEYS
            )
            bars.append(f"<div class='legend'>{legend}</div>")
        trend_rows = []
        prev = None
        for row in self.trend:
            d_ipc = "—"
            if prev is not None and prev["mean_ipc"] and row["mean_ipc"]:
                d_ipc = f"{row['mean_ipc'] / prev['mean_ipc'] - 1:+.1%}"
            hit = "—" if row["cache_hit_rate"] is None else f"{row['cache_hit_rate']:.0%}"
            trend_rows.append(
                f"<tr><td>{_esc(row['run'])}</td><td>{row['mean_ipc']:.3f}</td>"
                f"<td>{d_ipc}</td><td>{row['wall_seconds']:.2f}</td><td>{hit}</td></tr>"
            )
            prev = row
        campaign_html = ""
        if self.campaign:
            h = self.campaign
            verdict = "clean" if h.get("clean") else "DEGRADED"
            cls = "ok" if h.get("clean") else "bad"
            campaign_rows = "".join(
                f"<tr><td>{_esc(label)}</td><td>{h.get(key, 0)}</td></tr>"
                for label, key in (
                    ("corrupt trace-cache entries", "cache_corrupt_entries"),
                    ("supervisor retries", "supervisor_retries"),
                    ("quarantined cells", "supervisor_quarantined"),
                    ("worker respawns", "supervisor_respawns"),
                    ("corrupt worker results", "supervisor_corrupt_results"),
                    ("straggler cells", "straggler_cells"),
                    ("retry-storm cells", "retry_storm_cells"),
                )
            )
            campaign_html = (
                "<h2>Campaign health</h2>"
                f"<p class='verdict {cls}'><strong>{verdict}</strong> — data "
                "integrity and orchestration churn for this run plus "
                f"{h.get('snapshots_scanned', 0)} perf snapshot(s).</p>"
                "<table><tr><th>counter</th><th>value</th></tr>"
                f"{campaign_rows}</table>"
            )
        compiler_html = ""
        if self.compiler:
            t = self.compiler
            compiler_rows = "".join(
                f"<tr><td>{_esc(label)}</td><td>{value}</td></tr>"
                for label, value in (
                    ("blocks compiled", t.get("blocks_compiled", 0)),
                    ("superblocks", t.get("superblocks", 0)),
                    ("code-cache binds", t.get("cache_binds", 0)),
                    ("compiled-block executions", t.get("block_execs", 0)),
                    ("side-exit rate", f"{t.get('side_exit_rate', 0.0):.2%}"),
                    ("fault replays", t.get("replays", 0)),
                    ("block-instruction fraction",
                     f"{t.get('block_inst_fraction', 0.0):.1%}"),
                    ("compile wall seconds", f"{t.get('compile_seconds', 0.0):.3f}"),
                )
            )
            compiler_html = (
                "<h2>Compiler telemetry</h2>"
                "<p>Block-compiled dispatch tier, from this run plus "
                f"{t.get('snapshots_scanned', 0)} perf snapshot(s) that used it.</p>"
                "<table><tr><th>counter</th><th>value</th></tr>"
                f"{compiler_rows}</table>"
            )
        warn_html = "".join(f"<li>{_esc(w)}</li>" for w in self.warnings)
        return f"""<!DOCTYPE html>
<html><head><meta charset="utf-8"><title>Fidelity report — {_esc(self.run)}</title>
<style>
body {{ font: 14px/1.5 -apple-system, "Segoe UI", sans-serif; margin: 2em auto; max-width: 62em; color: #222; }}
table {{ border-collapse: collapse; width: 100%; margin: 1em 0; }}
th, td {{ border: 1px solid #ccc; padding: 4px 8px; text-align: left; }}
tr.pass td:first-child {{ color: #2a7d2a; font-weight: bold; }}
tr.fail td {{ background: #fde8e8; }}
tr.fail td:first-child {{ color: #b01818; font-weight: bold; }}
.verdict.ok {{ color: #2a7d2a; }} .verdict.bad {{ color: #b01818; }}
.row {{ display: flex; align-items: center; margin: 3px 0; }}
.label {{ width: 16em; flex: none; }}
.bar {{ flex: 1; height: 18px; background: #f4f4f4; }}
.seg {{ display: inline-block; height: 100%; }}
.legend {{ margin-top: .6em; }} .key {{ margin-right: 1em; }}
.swatch {{ display: inline-block; width: 10px; height: 10px; margin-right: 4px; }}
</style></head><body>
<h1>Paper-fidelity report — {_esc(self.run)}</h1>
<p>Reproduction of <em>Exploiting Partial Operand Knowledge</em> (ICPP 2003)
checked on {_esc(', '.join(self.benchmarks))}
({self.instructions} measured instructions, {self.warmup} warmup).</p>
<p class="verdict {'ok' if self.ok else 'bad'}"><strong>
{passed}/{len(self.checks)} checks in tolerance{'' if self.ok else ' — FIDELITY REGRESSION'}
</strong></p>
<table><tr><th>status</th><th>figure</th><th>claim</th><th>value</th><th>band</th><th>paper</th></tr>
{''.join(rows)}</table>
<h2>CPI stacks</h2>
<p>Cycle attribution for the headline configurations (bar length ∝ CPI;
components sum exactly to measured cycles).</p>
{''.join(bars) or '<p>(no stacks collected)</p>'}
<h2>Perf-snapshot trend</h2>
{'<table><tr><th>run</th><th>mean IPC</th><th>ΔIPC</th><th>wall s</th><th>cache hit rate</th></tr>' + ''.join(trend_rows) + '</table>' if trend_rows else '<p>(no snapshots found)</p>'}
{campaign_html}
{compiler_html}
{'<h2>Warnings</h2><ul>' + warn_html + '</ul>' if warn_html else ''}
</body></html>
"""


def _esc(text: object) -> str:
    return (
        str(text)
        .replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
        .replace('"', "&quot;")
    )


# ------------------------------------------------------------- collection

def _bench_trend(bench_dir: str | Path, warnings: list[str]) -> list[dict]:
    """Chronological per-snapshot summary rows from ``BENCH_*.json``."""
    from repro.obs.manifest import load_bench_snapshot

    rows = []
    directory = Path(bench_dir)
    if not directory.is_dir():
        return rows
    for path in sorted(directory.glob("BENCH_*.json")):
        try:
            payload = load_bench_snapshot(path)
        except (ValueError, OSError, json.JSONDecodeError) as exc:
            warnings.append(f"skipped invalid snapshot {path.name}: {exc}")
            continue
        ipcs: list[float] = []
        for record in payload["benchmarks"].values():
            ipc = record.get("ipc")
            if isinstance(ipc, dict):
                ipcs.extend(float(v) for v in ipc.values())
            elif isinstance(ipc, (int, float)):
                ipcs.append(float(ipc))
        cache = payload["manifest"].get("trace_cache") or {}
        hits = cache.get("hits", 0)
        misses = cache.get("misses", 0)
        rows.append(
            {
                "run": payload["run"],
                "created_unix": payload["manifest"]["created_unix"],
                "mean_ipc": sum(ipcs) / len(ipcs) if ipcs else 0.0,
                "wall_seconds": float(payload["totals"].get("wall_seconds", 0.0)),
                "cache_hit_rate": hits / (hits + misses) if hits + misses else None,
            }
        )
    rows.sort(key=lambda r: r["created_unix"])
    return rows


def _campaign_health(bench_dir: str | Path | None, warnings: list[str]) -> dict:
    """Data-integrity and orchestration-churn counters for the campaign.

    Folds the run context's trace-cache counters and last sweep report
    together with the totals recorded in the scanned ``BENCH_*.json``
    manifests, so the fidelity score always ships with the health of the
    runs behind it: corrupt cache entries that were dropped and re-emulated,
    cells that needed retries or were quarantined, workers respawned
    after crashes, and straggler / retry-storm flags.
    """
    from repro.context import current
    from repro.experiments import trace_cache
    from repro.obs.manifest import load_bench_snapshot

    health = {
        "cache_corrupt_entries": int(trace_cache.stats().get("corrupt_entries", 0)),
        "supervisor_retries": 0,
        "supervisor_quarantined": 0,
        "supervisor_respawns": 0,
        "supervisor_corrupt_results": 0,
        "straggler_cells": 0,
        "retry_storm_cells": 0,
        "snapshots_scanned": 0,
    }
    blocks = []
    live = current().sweep_report
    if live is not None:
        blocks.append(live.to_dict())
    if bench_dir is not None and Path(bench_dir).is_dir():
        for path in sorted(Path(bench_dir).glob("BENCH_*.json")):
            try:
                payload = load_bench_snapshot(path)
            except (ValueError, OSError, json.JSONDecodeError):
                continue  # _bench_trend already warned about this file
            manifest = payload["manifest"]
            cache = manifest.get("trace_cache") or {}
            health["cache_corrupt_entries"] += int(cache.get("corrupt_entries", 0) or 0)
            block = manifest.get("supervisor")
            if isinstance(block, dict):
                blocks.append(block)
            health["snapshots_scanned"] += 1
    for block in blocks:
        health["supervisor_retries"] += int(block.get("retries", 0) or 0)
        health["supervisor_quarantined"] += int(block.get("quarantined", 0) or 0)
        health["supervisor_respawns"] += int(block.get("respawns", 0) or 0)
        health["supervisor_corrupt_results"] += int(block.get("corrupt_results", 0) or 0)
        health["straggler_cells"] += len(block.get("stragglers") or ())
        health["retry_storm_cells"] += len(block.get("retry_storms") or ())
    health["clean"] = not (
        health["cache_corrupt_entries"]
        or health["supervisor_quarantined"]
        or health["supervisor_corrupt_results"]
    )
    if health["cache_corrupt_entries"]:
        warnings.append(
            f"campaign health: {health['cache_corrupt_entries']} corrupt "
            "trace-cache entries were dropped and re-emulated"
        )
    if health["supervisor_quarantined"]:
        warnings.append(
            f"campaign health: {health['supervisor_quarantined']} sweep "
            "cells exhausted retries and were quarantined"
        )
    if health["supervisor_corrupt_results"]:
        warnings.append(
            f"campaign health: {health['supervisor_corrupt_results']} worker "
            "results failed checksum verification"
        )
    return health


def _compiler_telemetry(bench_dir: str | Path | None, warnings: list[str]) -> dict:
    """JIT-tier counters for the campaign, or ``{}`` when unused.

    Folds the ``compiler`` blocks recorded in scanned ``BENCH_*.json``
    manifests.  This process's live block-engine counters stay out: they
    include host compile seconds, and the report must be byte-identical
    across runs and dispatch tiers (they reach the CLI manifest's
    ``compiler`` block instead).  Empty when no snapshot saw the blocks
    tier compile anything.
    """
    from repro.obs.manifest import load_bench_snapshot

    totals = {
        "blocks_compiled": 0,
        "superblocks": 0,
        "compile_seconds": 0.0,
        "block_execs": 0,
        "block_insts": 0,
        "fallback_insts": 0,
        "replays": 0,
        "side_exits": 0,
        "cache_binds": 0,
        "snapshots_scanned": 0,
    }

    def fold(stats_block: dict) -> None:
        for key in totals:
            if key == "snapshots_scanned":
                continue
            value = stats_block.get(key, 0) or 0
            totals[key] += float(value) if key == "compile_seconds" else int(value)

    if bench_dir is not None and Path(bench_dir).is_dir():
        for path in sorted(Path(bench_dir).glob("BENCH_*.json")):
            try:
                payload = load_bench_snapshot(path)
            except (ValueError, OSError, json.JSONDecodeError):
                continue  # _bench_trend already warned about this file
            block = payload["manifest"].get("compiler")
            if isinstance(block, dict) and isinstance(block.get("stats"), dict):
                fold(block["stats"])
                totals["snapshots_scanned"] += 1
    if not totals["blocks_compiled"]:
        return {}
    execs = totals["block_execs"]
    insts = totals["block_insts"] + totals["fallback_insts"]
    totals["side_exit_rate"] = totals["side_exits"] / execs if execs else 0.0
    totals["block_inst_fraction"] = totals["block_insts"] / insts if insts else 0.0
    if execs and totals["side_exit_rate"] > 0.5:
        warnings.append(
            f"compiler telemetry: side-exit rate {totals['side_exit_rate']:.0%} — "
            "superblock speculation is mostly wasted on this workload mix"
        )
    return totals


def run_fidelity(
    benchmarks: tuple[str, ...] = FIDELITY_BENCHMARKS,
    instructions: int = FIDELITY_INSTRUCTIONS,
    warmup: int = FIDELITY_WARMUP,
    slice_counts: tuple[int, ...] = (2, 4),
    bench_dir: str | Path | None = None,
    run_name: str = "fidelity",
    sampling=None,
) -> FidelityReport:
    """Regenerate the reproduced figures and score them against the paper.

    Tolerance bands mirror ``benchmarks/test_*`` (the tier-2 suite) so a
    figure that fails here would also fail there — this is the fast,
    artifact-producing form of the same contract.

    *sampling* (a :class:`~repro.timing.sampling.SamplingPlan`)
    regenerates Table 1 through the statistical-sampling engine at a
    horizon of *instructions*: its IPC checks then carry 95% confidence
    intervals and score by CI overlap instead of point tolerance (see
    :class:`FigureCheck`), and the rendered table shows ``value [lo,
    hi]``.  The trace-driven figures keep their exact paths.
    """
    from repro.experiments import figure1, figure2, figure4, figure6, figure11, figure12, table1
    from repro.memsys.partial_tag import PartialTagOutcome

    report = FidelityReport(
        run=run_name, benchmarks=tuple(benchmarks),
        instructions=instructions, warmup=warmup,
    )
    checks = report.checks

    def check(figure: str, claim: str, value: float,
              lo: float | None, hi: float | None, paper: str,
              ci: tuple[float, float] | None = None) -> None:
        checks.append(FigureCheck(PaperTarget(figure, claim, lo, hi, paper), value, ci=ci))

    # Figure 11 drives Figure 12, the CPI stacks and Table 1's exact rows,
    # so run it first.
    fig11 = figure11.run(benchmarks, instructions, slice_counts=slice_counts, warmup=warmup)
    rel = {s: fig11.mean_relative_to_ideal(s) for s in slice_counts}
    up = {s: fig11.mean_speedup_over_simple(s) for s in slice_counts}
    check("Figure 11", "slice-by-2 IPC relative to ideal", rel[2], 0.93, 1.02,
          "within ~1% of ideal")
    check("Figure 11", "slice-by-4 IPC relative to ideal", rel[4], 0.80, 1.02,
          "~82% of ideal")
    check("Figure 11", "slice-by-2 speedup over simple pipelining", up[2], 0.03, None,
          "~16% faster")
    check("Figure 11", "slice-by-4 speedup exceeds slice-by-2", up[4] - up[2], 0.0, None,
          "~44% vs ~16%")
    worst_vs_ideal = max(
        fig11.ipc(b, s) / fig11.ideal_ipc(b) for b in benchmarks for s in slice_counts
    )
    check("Figure 11", "bit-sliced IPC never beats ideal (worst ratio)",
          worst_vs_ideal, None, 1.02, "bounded by the ideal machine")

    fig12 = figure12.run(base=fig11)
    contrib = {s: fig12.mean_new_technique_contribution(s) for s in slice_counts}
    check("Figure 12", "new techniques add speedup beyond bypassing (slice-by-2)",
          contrib[2], 0.0, None, "additional ~8%")
    check("Figure 12", "contribution grows with slicing (by-4 minus by-2)",
          contrib[4] - contrib[2], 0.0, None, "~13% vs ~8%")
    worst_total = min(fig12.total_speedup(b, s) for b in benchmarks for s in slice_counts)
    check("Figure 12", "every benchmark speeds up overall (worst total)",
          worst_total, 1e-9, None, "all bars positive")

    t1 = table1.run(benchmarks, instructions, warmup=warmup, sampling=sampling,
                    base=None if sampling is not None else fig11)
    t1_rows = t1.rows()
    t1_min = min(t1_rows, key=lambda r: r.ipc)
    t1_max = max(t1_rows, key=lambda r: r.ipc)
    check("Table 1", "IPC within plausible band (min)",
          t1_min.ipc, 0.2, 4.0, "0.9–2.6 at 4-wide", ci=t1_min.ipc_ci)
    check("Table 1", "IPC within plausible band (max)",
          t1_max.ipc, 0.2, 4.0, "0.9–2.6 at 4-wide", ci=t1_max.ipc_ci)
    check("Table 1", "load fraction (min)",
          min(r.load_fraction for r in t1_rows), 0.03, 0.6, "19–34% loads")
    check("Table 1", "branch accuracy (min)",
          min(r.branch_accuracy for r in t1_rows), 0.6, 1.0, "86–96%")

    fig1 = figure1.run()
    check("Figure 1", "simple pipelining costs IPC (simple/ideal)",
          fig1.ipcs["simple-pipe-2"] / fig1.ipcs["ideal"], None, 0.999,
          "dependant waits full latency")
    check("Figure 1", "bit-slicing recovers IPC (sliced/simple)",
          fig1.ipcs["bitslice-2"] / fig1.ipcs["simple-pipe-2"], 1.0, None,
          "overlapped dependants")
    check("Figure 1", "dependence-chain span shrinks (simple - sliced)",
          fig1.chain_span("simple-pipe-2") - fig1.chain_span("bitslice-2"),
          0.0, None, "slices overlap the chain")

    fig2 = figure2.run(benchmarks, instructions)
    resolved15 = [fig2.resolved_by(b, 15) for b in benchmarks]
    check("Figure 2", "loads disambiguated by bit 15 (mean)",
          sum(resolved15) / len(resolved15), 0.90, 1.0, "~100% by bit 10")
    resolved_full = [fig2.resolved_by(b, 31) for b in benchmarks]
    check("Figure 2", "loads disambiguated at full width (min)",
          min(resolved_full), 0.999, 1.0, "100% by construction")

    fig4 = figure4.run(instructions=instructions, warmup=warmup)
    full_multi = max(
        char.fraction(char.config.tag_bits, PartialTagOutcome.MULTI)
        for char in fig4.panels.values()
    )
    check("Figure 4", "full-width tags never multi-match (max)",
          full_multi, 0.0, 0.0, "conventional compare")
    probe_miss = max(
        char.fraction(min(10, char.config.tag_bits), PartialTagOutcome.SINGLE_MISS)
        for char in fig4.panels.values()
    )
    check("Figure 4", "false single matches at 10 tag bits (max)",
          probe_miss, None, 0.15, "rare by ~10 bits")

    fig6 = figure6.run(benchmarks, instructions, warmup=warmup)
    check("Figure 6", "mispredicts detected from 1 bit (mean)",
          fig6.mean_detected_at_1, 0.15, 1.0, "~28%")
    check("Figure 6", "mispredicts detected from 8 bits (mean)",
          fig6.mean_detected_at_8, 0.30, 1.0, "majority by 8 bits")
    check("Figure 6 (§5.3)", "beq/bne share of dynamic branches (mean)",
          fig6.mean_eq_branch_fraction, 0.45, 1.0, "~61%")
    check("Figure 6 (§5.3)", "beq/bne share of mispredictions (mean)",
          fig6.mean_eq_mispredict_fraction, 0.35, 1.0, "~48%")

    # CPI stacks for the headline configurations, invariant-checked.
    for name in benchmarks:
        report.stacks.append(fig11.ideal[name].cpi_stack(benchmark=name))
        for s in slice_counts:
            ladder = fig11.ladder[(name, s)]
            report.stacks.append(ladder[0].cpi_stack(benchmark=name))
            report.stacks.append(ladder[-1].cpi_stack(benchmark=name))

    if bench_dir is not None:
        report.trend = _bench_trend(bench_dir, report.warnings)
    report.campaign = _campaign_health(bench_dir, report.warnings)
    report.compiler = _compiler_telemetry(bench_dir, report.warnings)
    return report


# -------------------------------------------------------------------- CLI

def main(argv: Sequence[str] | None = None) -> int:
    """``repro-report``: paper-fidelity regression report."""
    parser = argparse.ArgumentParser(
        prog="repro-report",
        description="Score the reproduced figures against the paper's claims "
        "and render a fidelity report (markdown to stdout by default).",
    )
    parser.add_argument("-b", "--benchmarks", nargs="+", default=list(FIDELITY_BENCHMARKS),
                        help="benchmarks to run (default: %(default)s)")
    parser.add_argument("-n", "--instructions", type=int, default=FIDELITY_INSTRUCTIONS,
                        help="measured instructions per benchmark (default: %(default)s)")
    parser.add_argument("--warmup", type=int, default=FIDELITY_WARMUP,
                        help="warmup instructions (default: %(default)s)")
    parser.add_argument("--run-name", default="fidelity", help="label for the report header")
    parser.add_argument("--bench-dir", default=None,
                        help="directory scanned for BENCH_*.json trend snapshots "
                        "(default: none; the report shows only its own run)")
    parser.add_argument("--out-md", metavar="PATH",
                        help="also write the markdown report to PATH")
    parser.add_argument("--out-html", metavar="PATH",
                        help="also write a self-contained HTML report to PATH")
    parser.add_argument("--out-json", metavar="PATH",
                        help="also write the raw check data as JSON to PATH")
    parser.add_argument("--quiet", action="store_true", help="suppress stdout markdown")
    parser.add_argument("--no-fail", action="store_true",
                        help="exit 0 even when checks are out of tolerance")
    samp = parser.add_argument_group("statistical sampling (docs/performance.md)")
    samp.add_argument("--sample", action="store_true",
                      help="regenerate Table 1 through the sampling engine; its "
                      "checks then carry 95%% CIs and score by CI overlap")
    samp.add_argument("--sample-window", type=int, metavar="N",
                      help="measured instructions per window")
    samp.add_argument("--sample-interval", type=int, metavar="N",
                      help="systematic-sampling period")
    samp.add_argument("--ci-target", type=float, metavar="FRAC",
                      help="relative CI half-width target (auto-extends windows)")
    samp.add_argument("--sample-seed", type=int, metavar="SEED",
                      help="window-placement + bootstrap seed")
    args = parser.parse_args(argv)

    sampling = None
    if args.sample:
        import dataclasses

        from repro.timing.sampling import SamplingPlan

        overrides = {
            key: value
            for key, value in (
                ("window", args.sample_window),
                ("interval", args.sample_interval),
                ("ci_target", args.ci_target),
                ("seed", args.sample_seed),
            )
            if value is not None
        }
        try:
            sampling = dataclasses.replace(SamplingPlan(), **overrides).validate()
        except ValueError as exc:
            parser.error(str(exc))
    elif any(v is not None for v in (args.sample_window, args.sample_interval,
                                     args.ci_target, args.sample_seed)):
        parser.error("sampling knobs require --sample")

    report = run_fidelity(
        benchmarks=tuple(args.benchmarks),
        instructions=args.instructions,
        warmup=args.warmup,
        bench_dir=args.bench_dir,
        run_name=args.run_name,
        sampling=sampling,
    )
    markdown = report.render_markdown()
    if not args.quiet:
        print(markdown)
    if args.out_md:
        Path(args.out_md).write_text(markdown)
    if args.out_html:
        Path(args.out_html).write_text(report.render_html())
    if args.out_json:
        Path(args.out_json).write_text(json.dumps(report.to_dict(), indent=2, sort_keys=True))
    if not report.ok:
        for c in report.failed:
            print(
                f"FAIL {c.target.figure}: {c.target.claim} = {c.value:.4g} "
                f"outside {c.target.band()}",
                file=sys.stderr,
            )
        if not args.no_fail:
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
