"""Console entry point."""

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


def test_unknown_experiment_rejected():
    with pytest.raises(SystemExit):
        main(["figure99"])


def test_flag_prefixes_are_rejected():
    with pytest.raises(SystemExit) as exc:
        main(["sweep", "--sample", "--sample-warm", "100", "-b", "go"])
    assert exc.value.code == 2


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


def test_non_sweep_metrics_run_imports_no_supervisor(tmp_path):
    """The manifest reads the sweep report from the run context, so a
    run that sweeps nothing loads neither the sweep supervisor nor
    ``multiprocessing`` to write it."""
    import os
    import subprocess
    import sys
    from pathlib import Path

    import repro

    code = (
        "import sys\n"
        "from repro.experiments.cli import main\n"
        f"main(['table1', '-n', '1000', '-b', 'go', '--metrics-out', {str(tmp_path / 'm.json')!r},"
        f" '--bench-dir', {str(tmp_path)!r}])\n"
        "print(sorted(m for m in ('repro.experiments.supervisor', 'multiprocessing')"
        " if m in sys.modules))\n"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(repro.__file__).resolve().parents[1])}
    result = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=300
    )
    assert result.returncode == 0, result.stderr[-2000:]
    assert result.stdout.strip().splitlines()[-1] == "[]"
    assert (tmp_path / "m.json").exists()


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
