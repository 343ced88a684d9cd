"""Console entry point."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro.experiments.runner as runner
from repro.experiments.cli import main


def test_table1_via_cli(capsys):
    assert main(["table1", "-n", "2000", "-b", "go"]) == 0
    out = capsys.readouterr().out
    assert "Table 1" in out and "go" in out


def test_fig6_via_cli(capsys):
    assert main(["fig6", "-n", "2000", "-b", "li"]) == 0
    assert "Figure 6" in capsys.readouterr().out


def test_unknown_benchmark_rejected(capsys):
    assert main(["table1", "-b", "crafty"]) == 2
    err = capsys.readouterr().err
    assert "unknown benchmark" in err and "crafty" in err


def test_unknown_benchmark_gets_spelling_hint(capsys):
    assert main(["table1", "-b", "vorte"]) == 2
    assert "did you mean 'vortex'" in capsys.readouterr().err


@pytest.mark.parametrize("var", ["REPRO_DISPATCH", "REPRO_TIMING"])
def test_misspelt_tier_switch_rejected(capsys, monkeypatch, var):
    monkeypatch.setenv(var, "refrence")
    assert main(["table1", "-n", "2000", "-b", "go"]) == 2
    err = capsys.readouterr().err
    assert var in err and "'reference'" in err


@pytest.mark.parametrize("var, value, named", [
    # A spec written for the retired stall fault is malformed now.
    ("REPRO_CHAOS", "seed=7,stall=1.0,stall_seconds=3", "'stall'"),
    ("REPRO_CHAOS", "seed=7,kill=often", "'often'"),
    ("REPRO_CHAOS_ORCH_KILL", "two", "'two'"),
])
def test_malformed_chaos_spec_rejected_before_the_sweep(capsys, monkeypatch, var, value, named):
    monkeypatch.setenv(var, value)
    assert main(["sweep", "-n", "1200", "-b", "li", "--configs", "ideal"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    (line,) = captured.err.splitlines()
    assert var in line and named in line


def test_sweep_heartbeat_prints_cell_progress(tmp_path, capsys):
    """``--heartbeat`` is the sweep's progress view: a line per finished
    cell at interval 0, on stderr, so stdout stays the bare table."""
    argv = ["sweep", "-n", "1200", "-b", "li", "--configs", "ideal", "bitslice2"]
    assert main([*argv, "--heartbeat", "0", "--bench-dir", str(tmp_path)]) == 0
    beating = capsys.readouterr()
    assert "sweep 2/2 cells" in beating.err
    assert main(argv) == 0
    assert capsys.readouterr().out == beating.out


def test_heartbeat_names_only_simulations_this_process_ran(tmp_path, capsys):
    """A sweep's cells simulate in its worker, so its heartbeat names
    no simulation; an in-process experiment's names the last one."""
    assert main(["sweep", "-n", "1200", "-b", "li", "--configs", "ideal",
                 "--heartbeat", "0", "--bench-dir", str(tmp_path)]) == 0
    err = capsys.readouterr().err
    assert "sweep 1/1 cells" in err and "simulate." not in err
    assert main(["table1", "-n", "2000", "-b", "li",
                 "--heartbeat", "0", "--bench-dir", str(tmp_path)]) == 0
    assert "last simulate.li/" in capsys.readouterr().err


def test_unknown_experiment_rejected():
    with pytest.raises(SystemExit):
        main(["figure99"])


def test_flag_prefixes_are_rejected():
    with pytest.raises(SystemExit) as exc:
        main(["sweep", "--sample", "--sample-warm", "100", "-b", "go"])
    assert exc.value.code == 2


def test_trace_cache_flag_wins_over_disabling_env(tmp_path):
    """``--trace-cache DIR`` turns the cache on under
    ``REPRO_TRACE_CACHE=off`` (set for every test by the conftest)."""
    import json

    cache_dir = tmp_path / "cache"
    metrics = tmp_path / "m.json"
    runner.clear_trace_cache()
    try:
        assert main(["table1", "-n", "1000", "-b", "go", "--trace-cache", str(cache_dir),
                     "--metrics-out", str(metrics), "--bench-dir", str(tmp_path)]) == 0
    finally:
        runner.clear_trace_cache()
    assert len(list(cache_dir.glob("*.npz"))) == 1
    block = json.loads(metrics.read_text())["manifest"]["trace_cache"]
    assert block["enabled"] is True and block["misses"] == 1


def test_trace_cache_and_no_trace_cache_conflict(tmp_path, capsys):
    argv = ["table1", "-n", "1000", "-b", "go", "--trace-cache", str(tmp_path), "--no-trace-cache"]
    assert main(argv) == 2
    assert "mutually exclusive" in capsys.readouterr().err


def test_keep_going_isolates_failing_benchmark(tmp_path, capsys, monkeypatch):
    """Acceptance scenario: one broken workload → partial results, exit 1."""
    runner.clear_trace_cache()
    real = runner.get_workload

    def broken(name):
        if name == "go":
            raise RuntimeError("forced failure for testing")
        return real(name)

    monkeypatch.setattr(runner, "get_workload", broken)
    out_path = tmp_path / "partial.json"
    try:
        rc = main(["table1", "-n", "2000", "-b", "go", "li", "--keep-going", "-o", str(out_path)])
    finally:
        runner.clear_trace_cache()
    captured = capsys.readouterr()
    assert rc == 1
    # The healthy benchmark's table still printed.
    assert "Table 1" in captured.out and "li" in captured.out
    # The failure report names exactly the broken workload.
    assert "Sweep failure report" in captured.out
    assert "FAILED   go" in captured.out
    assert "FAILED   li" not in captured.out
    # Partial results were archived atomically with the failure recorded.
    from repro.experiments.results_io import load_rows

    payload = load_rows(out_path)
    failures = payload["metadata"]["failures"]
    assert [f["benchmark"] for f in failures] == ["go"]
    assert failures[0]["retried"] is True
    assert [p.name for p in tmp_path.iterdir()] == ["partial.json"]


def test_keep_going_clean_run_reports_no_failures(capsys):
    runner.clear_trace_cache()
    try:
        rc = main(["table1", "-n", "2000", "-b", "li", "--keep-going"])
    finally:
        runner.clear_trace_cache()
    out = capsys.readouterr().out
    assert rc == 0
    assert "no failures" in out


def test_keep_going_keeps_each_experiments_own_benchmarks(capsys):
    """``--keep-going`` drops only the benchmarks that failed: Figure 2
    still prints its own two panels, byte for byte as without it."""
    runner.clear_trace_cache()
    try:
        assert main(["fig2", "-n", "2000"]) == 0
        plain = capsys.readouterr().out
        assert main(["fig2", "-n", "2000", "--keep-going"]) == 0
        kept = capsys.readouterr().out
    finally:
        runner.clear_trace_cache()
    assert plain.count("Figure 2 — ") == 2
    assert kept == plain + runner.render_failure_report([]) + "\n"


def test_jobs_applies_to_the_sweep_experiment_only(capsys):
    assert main(["table1", "-n", "2000", "-b", "go", "--jobs", "2"]) == 2
    assert "--jobs applies to the 'sweep' experiment only" in capsys.readouterr().err
    assert main(["sweep", "-n", "2000", "-b", "go", "li", "--configs", "ideal", "--jobs", "2"]) == 0
    rows = [line.split("|")[:2] for line in capsys.readouterr().out.splitlines() if "|" in line]
    assert [[cell.strip() for cell in row] for row in rows[1:]] == [["go", "ideal"], ["li", "ideal"]]


@pytest.mark.parametrize("argv, named", [
    (["fig1", "--configs", "bogus"], "--configs applies to the 'sweep'"),
    (["fig1", "--resume", "missing.json"], "--resume applies to the 'sweep'"),
    (["table1", "-n", "1000", "-b", "go", "--journal", "j.json"], "--journal applies"),
    (["fig1", "--max-cell-retries", "2"], "--max-cell-retries applies"),
    (["fig1", "--backoff", "0.25"], "--backoff applies"),
    (["all", "-n", "1000", "-b", "go", "--configs", "ideal", "--backoff", "0"],
     "--configs, --backoff apply to the 'sweep' experiment only"),
    (["sweep", "-n", "1200", "-b", "li", "--configs", "ideal", "--inject", "5"],
     "--inject applies to the 'inject'"),
    (["fig1", "--inject-seed", "2003"], "--inject-seed applies to the 'inject'"),
])
def test_flags_of_another_experiment_rejected(capsys, argv, named):
    """A flag only another experiment reads exits 2 with one line naming
    it, even when its value equals the default."""
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    (line,) = captured.err.splitlines()
    assert named in line


def test_flag_defaults_still_shown_in_help(capsys):
    """The sweep and inject flags parse to None so that a given value can
    be told from a default; ``--help`` still states each default."""
    import re

    with pytest.raises(SystemExit):
        main(["--help"])
    entries = re.split(r"\n(?=  -)", capsys.readouterr().out)
    helps = {entry.split()[0]: " ".join(entry.split()) for entry in entries if entry.startswith("  -")}
    assert "(default 2)" in helps["--max-cell-retries"]
    assert "(default 0.25)" in helps["--backoff"]
    assert "(default 2003)" in helps["--inject-seed"]


def test_inject_experiment_reports_clean_campaign(capsys):
    rc = main(["inject", "-n", "2000", "-b", "li", "--inject", "60"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "li" in out and "silent" in out.lower()


def test_observability_flags_emit_all_artifacts(tmp_path, capsys):
    """`--metrics-out/--trace-events/--profile` produce schema-valid
    artifacts plus a BENCH snapshot with per-config IPC and throughput."""
    import json

    from repro.obs.events import validate_jsonl_file
    from repro.obs.manifest import load_bench_snapshot, validate_manifest
    from repro.obs.registry import validate_metrics_dump

    metrics = tmp_path / "m.json"
    events = tmp_path / "t.jsonl"
    bench_dir = tmp_path / "bench"
    runner.clear_trace_cache()
    try:
        rc = main([
            "table1", "-n", "2000", "-b", "li",
            "--metrics-out", str(metrics),
            "--trace-events", str(events),
            "--profile",
            "--bench-dir", str(bench_dir),
        ])
    finally:
        runner.clear_trace_cache()
    captured = capsys.readouterr()
    assert rc == 0
    assert "=== Profile:" in captured.out + captured.err

    dump = json.loads(metrics.read_text())
    validate_metrics_dump(dump)
    validate_manifest(dump["manifest"])
    assert dump["manifest"]["config"]["experiment"] == "table1"
    names = dump["metrics"]
    assert names["sim.instructions"]["value"] > 0
    assert names["emulate.instructions"]["value"] > 0
    # One copy of each fact: the dump counts work, spans time it and the
    # manifest names what ran, so no clock, gauge or manifest copy here.
    from repro.timing.stats import METRIC_CATALOG

    expected = {metric: "counter" for metric, _help in METRIC_CATALOG.values()}
    expected.update({
        "emulate.collections": "counter",
        "emulate.instructions": "counter",
        "obs.events.dropped": "counter",
        "obs.events.emitted": "counter",
        "sim.run_instructions": "histogram",
        "sim.runs": "counter",
    })
    assert {name: m["kind"] for name, m in names.items()} == expected
    assert not {"blocks", "dispatch_tiers"} & set(dump["manifest"])

    assert validate_jsonl_file(events) > 0
    perfetto = events.with_suffix(".perfetto.json")
    chrome = json.loads(perfetto.read_text())
    assert chrome["traceEvents"], "Perfetto trace must contain slices"

    snapshots = sorted(bench_dir.glob("BENCH_table1-*.json"))
    assert len(snapshots) == 1
    payload = load_bench_snapshot(snapshots[0])
    li = payload["benchmarks"]["li"]
    assert set(li) == {"ipc", "wall_seconds", "instructions", "runs", "instructions_per_second"}
    assert li["ipc"] and all(v > 0 for v in li["ipc"].values())
    assert li["instructions_per_second"] > 0
    assert payload["manifest"]["git_sha"] is None or len(payload["manifest"]["git_sha"]) == 40


def test_sweep_profile_reports_worker_spans(tmp_path, capsys):
    """``--profile`` ranks the run's spans, the workers' included: a
    ``--jobs 2`` sweep's table holds the emulation and per-config
    simulation spans recorded in the worker processes."""
    runner.clear_trace_cache()
    try:
        rc = main([
            "sweep", "-n", "2000", "-b", "li", "gzip", "--configs", "ideal", "bitslice2",
            "--jobs", "2", "--profile", "--profile-top", "30", "--bench-dir", str(tmp_path),
        ])
    finally:
        runner.clear_trace_cache()
    assert rc == 0
    out = capsys.readouterr().out
    table = out[out.index("=== Profile:"):].splitlines()
    rows = {line.split()[0]: line.split() for line in table[2:-1]}
    assert rows["simulate.ideal"][1] == rows["simulate.bitslice-2"][1] == "2"
    assert rows["emulate.li"][1] == rows["emulate.gzip"][1] == "1"


def test_sampled_sweep_profile_says_where_the_time_went(tmp_path, capsys):
    """A sampled sweep's ``--profile`` table has rows for the init skip,
    the warming fast-forwards, the window traces, each config's window
    timing runs and the worker's start-up."""
    rc = main([
        "sweep", "--sample", "-n", "20000", "--sample-window", "300",
        "--sample-warmup", "100", "--sample-interval", "2000", "-b", "bzip",
        "--configs", "ideal", "bitslice4", "--jobs", "1",
        "--profile", "--profile-top", "30", "--bench-dir", str(tmp_path),
    ])
    assert rc == 0
    out = capsys.readouterr().out
    table = out[out.index("=== Profile:"):].splitlines()
    rows = {line.split()[0]: line.split() for line in table[2:-1]}
    windows = 20_000 // 2_000
    assert rows["simulate.ideal"][1] == rows["simulate.bitslice-4"][1] == str(windows)
    assert rows["window.bzip"][1] == str(windows)
    assert int(rows["warm.bzip"][1]) >= windows
    assert rows["skip.bzip"][1] == rows["worker.start"][1] == "1"


def test_manifest_names_the_configs_plan_and_seed_the_run_used(tmp_path):
    """A sampled sweep's manifest records its configs, its sampling plan
    (the canonical string its journal cell keys use) and its sample
    seed; an inject run records the inject seed, and a run that draws
    no seed records none."""
    import json

    from repro.timing.sampling import SamplingPlan

    def manifest(*argv):
        out = tmp_path / "m.json"
        assert main([*argv, "--metrics-out", str(out), "--bench-dir", str(tmp_path)]) == 0
        return json.loads(out.read_text())["manifest"]

    sampled = manifest(
        "sweep", "--sample", "--sample-seed", "7", "-n", "4000", "--sample-window", "300",
        "--sample-warmup", "100", "--sample-interval", "2000", "-b", "bzip",
        "--configs", "ideal", "bitslice4",
    )
    plan = SamplingPlan(window=300, warmup=100, interval=2000, seed=7)
    assert sampled["seed"] == 7
    assert sampled["config"]["configs"] == ["ideal", "bitslice4"]
    assert sampled["config"]["sampling"] == plan.canonical()

    injected = manifest("inject", "--inject", "5", "--inject-seed", "11", "-n", "1000", "-b", "go")
    assert injected["seed"] == 11
    plain = manifest("table1", "-n", "1000", "-b", "go")
    assert plain["seed"] is None
    assert not {"configs", "sampling"} & set(plain["config"])


def _fresh_interpreter(*args: str) -> subprocess.CompletedProcess:
    """Run ``python ARGS`` with this checkout's sources on the path."""
    import repro

    env = {**os.environ, "PYTHONPATH": str(Path(repro.__file__).resolve().parents[1])}
    result = subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, env=env, timeout=300
    )
    assert result.returncode == 0, result.stderr[-2000:]
    return result


def _modules_after(code: str) -> set[str]:
    """The modules a fresh interpreter holds after running *code*."""
    result = _fresh_interpreter("-c", code + "\nimport sys\nprint(' '.join(sys.modules))\n")
    return set(result.stdout.splitlines()[-1].split())


def _unneeded(modules, ran: str = "") -> list[str]:
    """numpy, the experiment modules and the characterization kernels
    among *modules*, less the experiment module *ran*."""
    return sorted(
        m for m in modules
        if m != ran and (
            m == "numpy" or m.startswith(("numpy.", "repro.characterization", "repro.experiments.figure"))
            or m in ("repro.experiments.table1", "repro.experiments.workload_table")
        )
    )


def test_non_sweep_metrics_run_imports_no_supervisor(tmp_path):
    """The manifest reads the sweep report from the run context, so a
    run that sweeps nothing loads neither the sweep supervisor nor
    ``multiprocessing`` to write it."""
    modules = _modules_after(
        "from repro.experiments.cli import main\n"
        f"main(['table1', '-n', '1000', '-b', 'go', '--metrics-out', {str(tmp_path / 'm.json')!r},"
        f" '--bench-dir', {str(tmp_path)!r}])"
    )
    assert not {"repro.experiments.supervisor", "multiprocessing"} & modules
    assert (tmp_path / "m.json").exists()


SAMPLED_SWEEP = (
    "sweep", "--sample", "-n", "4000", "--sample-window", "300", "--sample-warmup", "100",
    "--sample-interval", "2000", "-b", "bzip", "--configs", "ideal", "--jobs", "1",
)


def test_sampled_sweep_imports_no_numpy_or_experiment_module():
    """The CLI imports each experiment when it runs, and the trace format
    imports numpy on first use: a sampled sweep, which reads no trace
    file, loads neither."""
    modules = _modules_after(
        f"from repro.experiments.cli import main\nassert main({list(SAMPLED_SWEEP)!r}) == 0"
    )
    assert "repro.experiments.supervisor" in modules
    assert _unneeded(modules) == []


def test_cli_launched_sweep_worker_imports_no_numpy():
    """Spawn re-imports ``__main__`` in each worker, which under
    ``python -m repro.experiments.cli`` is the CLI: neither the
    orchestrator nor its worker imports numpy or an experiment module."""
    result = _fresh_interpreter("-X", "importtime", "-m", "repro.experiments.cli", *SAMPLED_SWEEP)
    imported = [
        line.rsplit("|", 1)[-1].strip()
        for line in result.stderr.splitlines() if line.startswith("import time:")
    ]
    assert imported.count("repro.harness.worker") == 2  # orchestrator and worker
    assert _unneeded(imported) == []


def test_fig1_run_imports_no_numpy_or_other_experiment():
    modules = _modules_after("from repro.experiments.cli import main\nassert main(['fig1']) == 0")
    assert "repro.experiments.figure1" in modules
    assert _unneeded(modules, ran="repro.experiments.figure1") == []


def test_report_still_imports_numpy_at_set_up():
    """A report reads traces and runs the Figure 2/4 kernels every time,
    so it keeps numpy's import in its set-up."""
    assert "numpy" in _modules_after("import repro.experiments.report")


def test_observability_off_leaves_no_session(tmp_path):
    from repro.obs.session import active_session

    runner.clear_trace_cache()
    try:
        assert main(["table1", "-n", "2000", "-b", "li"]) == 0
    finally:
        runner.clear_trace_cache()
    assert active_session() is None


def test_input_profile_flag(capsys):
    runner.clear_trace_cache()
    try:
        assert main(["table1", "-n", "2000", "-b", "li", "--input-profile", "test"]) == 0
    finally:
        runner.clear_trace_cache()
    assert "Table 1" in capsys.readouterr().out


def test_timeout_flag_trips_on_tiny_budget(capsys):
    runner.clear_trace_cache()
    try:
        rc = main(["table1", "-n", "30000", "-b", "vortex", "--keep-going", "--timeout", "1e-9"])
    finally:
        runner.clear_trace_cache()
        runner.set_wall_timeout(None)
    out = capsys.readouterr().out
    assert rc == 1
    assert "RunawayExecution" in out
