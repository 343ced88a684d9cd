"""Tests for the benchmark itself (run: ``python3 -m pytest perfbench/tests``)."""

import json
import os
import re
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.dont_write_bytecode = True

import ledger  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _span(sid, name, start, end, parent=None, process="perfbench", **args):
    return {"name": name, "category": ledger.CATEGORY, "span_id": sid, "parent_id": parent,
            "process": process, "start": start, "end": end, "status": "ok", "args": args}


def _ledger_rows(metrics):
    return {k: v for k, v in metrics.items()
            if k == "unattributed.s" or k in {f"{layer}.s" for layer in ledger.LAYERS}}


def test_ledger_self_times_sum_to_traced_wall():
    spans = [
        _span("a", "workloads.calibrate", 0.0, 2.0, insts=100),
        _span("b", "isa.assemble", 0.5, 0.7, parent="a"),
        _span("c", "timing.simulate", 3.0, 5.0, config="4s+partial_tag_matching"),
        # A generator consumed inside the simulation: charged its busy time.
        _span("d", "emulator.trace", 3.1, 4.9, parent="c", busy_s=0.5, records=40),
        _span("e", "tracefile.load", 6.0, 6.25, error="FileNotFoundError"),
    ]
    m = ledger.build(spans, wall_s=8.0, config_metrics=["timing.simulate.4s-partial_tag_matching.s"])
    rows = _ledger_rows(m)
    assert sum(rows.values()) == pytest.approx(8.0)
    assert m["workloads.calibrate.s"] == pytest.approx(1.8)
    assert m["isa.assemble.s"] == pytest.approx(0.2)
    assert m["timing.simulate.s"] == pytest.approx(1.5)
    assert m["timing.simulate.4s-partial_tag_matching.s"] == pytest.approx(1.5)
    assert m["emulator.trace.s"] == pytest.approx(0.5)
    assert m["tracefile.load.s"] == pytest.approx(0.25)
    assert m["unattributed.s"] == pytest.approx(8.0 - 2.0 - 2.0 - 0.25)
    assert m["timing.simulate.records"] == 40


def test_worker_start_wait_nests_orchestrator_spans():
    spans = [
        {"name": "worker.spawn", "category": "worker", "span_id": "o:1", "parent_id": None,
         "process": "orchestrator", "start": 1.0, "end": 1.0, "status": "mark",
         "args": {"pid": 42}},
        _span("o:2", "journal.flush", 1.1, 1.2, process="orchestrator"),
        {"name": "cell", "category": "worker.execute", "span_id": "w:1", "parent_id": "o:0",
         "process": "worker-42", "start": 1.5, "end": 4.0, "status": "ok", "args": {}},
        _span("w:2", "sampling.sample", 1.6, 3.9, parent="w:1", process="worker-42"),
    ]
    m = ledger.build(spans, wall_s=5.0)
    assert m["supervisor.worker_start.s"] == pytest.approx(0.4)
    assert m["journal.flush.s"] == pytest.approx(0.1)
    assert sum(_ledger_rows(m).values()) == pytest.approx(5.0)
    assert m["unattributed.s"] == pytest.approx(5.0 - 0.5 - 2.3)


def test_traced_command_ledger_sums_to_its_wall(tmp_path):
    """A real traced command: the ledger sums to its wall, nothing negative."""
    cache = tmp_path / "cache"
    argv = [str(BENCH / "traced.py"), str(tmp_path / "mark"), str(tmp_path / "own.jsonl"),
            "li", "repro.experiments.cli", "fig6", "-b", "li", "-n", "2000",
            "--bench-dir", str(tmp_path / "bench")]
    sample = run.launch(argv, run.child_env(cache), tmp_path, time.monotonic() + 120,
                        probing=False)
    assert sample.status == 0
    spans, facts = run.read_spans(tmp_path)
    assert facts["hidden_calibrations"] == 0
    m = ledger.build(spans, sample.wall_s)
    rows = _ledger_rows(m)
    assert sum(rows.values()) == pytest.approx(sample.wall_s)
    assert all(v >= -1e-3 for v in rows.values()), rows
    assert m["workloads.calibrate.s"] > 0 and m["characterization.branches.s"] > 0
    assert m["tracefile.bytes"] > 0
    counters = run.fact_metrics(facts)
    assert (counters["trace_cache.misses"], counters["trace_cache.hits"]) == (1, 0)


def _report_json(tmp_path, ok=True):
    checks = [{"claim": f"c{i}", "ok": ok or i > 0}
              for i in range(workloads.EXPECTED["report_checks"])]
    path = tmp_path / "report.json"
    path.write_text(json.dumps({"checks": checks}))
    return path


def test_perturbed_output_digest_is_a_failed_operation(tmp_path):
    path = _report_json(tmp_path)
    good = workloads.digest(path.read_bytes())
    assert workloads.check_report(0, path, (), good).failed == 0
    # A changed warm cache fails the output check even when the bytes match.
    assert workloads.check_report(0, path, ["the warm trace cache changed"], good).failed == 1
    path.write_bytes(path.read_bytes().replace(b"c1", b"c9"))
    outcome = workloads.check_report(0, path, (), good)
    assert (outcome.attempted, outcome.failed) == (24, 1)
    # An out-of-tolerance fidelity check fails on its own.
    bad = _report_json(tmp_path, ok=False)
    assert workloads.check_report(0, bad, (), workloads.digest(bad.read_bytes())).failed == 1


def _sweep_stdout(shift=1.0, half_width=0.1):
    rows = []
    for cell, exact in workloads.EXPECTED["sweep_exact_ipc"].items():
        ipc = round(exact * shift, 4)
        cycles = round(100_000 / ipc)
        ipc = round(100_000 / cycles, 4)
        rows.append(f"{cell.replace('/', ' | ')} | 100000 | {cycles} | {ipc:.4f} | "
                    f"{ipc - half_width:.4f} | {ipc + half_width:.4f}")
    return ("Supervised sweep (benchmark x config)\n"
            "benchmark | config | instructions | cycles | ipc | ipc_lo | ipc_hi\n"
            + "\n".join(rows) + "\n").encode()


def test_sweep_checks_cells_against_exact_ipc_and_recorded_digest():
    n_cells = len(workloads.EXPECTED["sweep_exact_ipc"])
    good = workloads.check_sweep(0, _sweep_stdout(), seed=123456789)
    assert (good.attempted, good.failed) == (n_cells + 1, 0), good.problems
    # The digest recorded for the default seed does not match this table.
    assert workloads.check_sweep(0, _sweep_stdout(), seed=workloads.DEFAULT_SAMPLE_SEED).failed == 1
    # Every estimate shifted 30% with a narrow CI: every cell fails, whatever the seed.
    shifted = workloads.check_sweep(0, _sweep_stdout(1.3, 0.01), seed=123456789)
    assert shifted.failed == n_cells
    # An IPC that is not instructions over cycles fails its cell.
    broken = _sweep_stdout().replace(b"| 100000 |", b"| 200000 |", 1)
    assert workloads.check_sweep(0, broken, seed=123456789).failed == 1


def test_metric_names_and_units():
    names = [m["name"] for key in ("end_to_end", "per_layer") for m in SPEC[key]]
    names += [w["name"] for w in SPEC["workloads"]]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.match(name), name
    for m in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert UNIT.match(m["unit"]), m
    per_layer = {m["name"] for m in SPEC["per_layer"]}
    emitted = set(ledger.build([], 1.0)) | set(run.fact_metrics({})) | {
        "import.s", "tracing_overhead.s", "traced_wall.s"}
    assert emitted <= per_layer, emitted - per_layer
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    for w in SPEC["workloads"]:
        assert w["why"] == workloads.WORKLOADS[w["name"]].why


def _tree(root: Path) -> dict:
    out = {}
    for path in root.rglob("*"):
        rel = path.relative_to(root)
        if rel.parts[0] in (".bench_build", ".git", ".pytest_cache") or "__pycache__" in rel.parts:
            continue
        if path.is_file():
            st = path.stat()
            out[str(rel)] = (st.st_size, st.st_mtime_ns)
    return out


def test_run_leaves_user_cache_and_tree_untouched():
    user_cache = Path("~/.cache/repro-traces").expanduser()
    before_cache = _tree(user_cache) if user_cache.exists() else None
    before = _tree(ROOT)
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", "report_warm", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    assert _tree(ROOT) == before
    assert (_tree(user_cache) if user_cache.exists() else None) == before_cache


def test_refuses_without_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "report_cold", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"},
    )
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
