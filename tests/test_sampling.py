"""Statistical sampling engine: accuracy, determinism, keying, sweeps."""

from __future__ import annotations

import dataclasses

import pytest

from repro.core.config import baseline_config
from repro.experiments.journal import cell_key
from repro.experiments.runner import collect_trace
from repro.experiments.supervisor import run_sweep
from repro.harness.faults import ProcessFaultPlan
from repro.timing.sampling import (
    SamplingPlan,
    bootstrap_cis,
    sample_benchmark,
    stats_error_bars,
)
from repro.timing.simulator import simulate
from repro.timing.stats import SimStats

#: Cheap, steady guest: ~0.2 s per sampled run at this plan.
BENCH = "bzip"
PLAN = SamplingPlan(window=300, warmup=100, interval=2000)


def _plan(**overrides) -> SamplingPlan:
    return dataclasses.replace(PLAN, **overrides).validate()


# ------------------------------------------------------------------ plan

def test_default_plan_validates():
    assert SamplingPlan().validate() is not None


@pytest.mark.parametrize(
    "overrides",
    [
        {"window": 0},
        {"warmup": -1},
        {"warm": -1},
        {"interval": 300},          # cannot fit warm + warmup + window
        {"ci_target": 1.0},
        {"ci_target": -0.1},
        {"confidence": 0.4},
        {"min_windows": 1},
        {"max_windows": 1},         # < min_windows
        {"resamples": 1},
    ],
)
def test_plan_validation_rejects_bad_knobs(overrides):
    with pytest.raises(ValueError):
        dataclasses.replace(PLAN, **overrides).validate()


def test_plan_canonical_is_a_full_identity():
    assert _plan().canonical() == _plan().canonical()
    base = _plan().canonical()
    for overrides in ({"window": 301}, {"interval": 2500}, {"seed": 99},
                      {"ci_target": 0.05}, {"resamples": 300}):
        assert _plan(**overrides).canonical() != base
    assert _plan().with_seed(7) == _plan(seed=7)


# ------------------------------------------------------- estimator quality

@pytest.fixture(scope="module")
def exact_40k():
    """Full detailed simulation over the sampled horizon (the truth)."""
    trace = collect_trace(BENCH, 40_000)
    return simulate(baseline_config(), trace, warmup=0)


@pytest.mark.parametrize("seed", [1, 2, 3, 2003])
def test_ci_covers_exact_ipc_across_seeds(exact_40k, seed):
    """The headline accuracy contract: at every seed the bootstrap CI
    covers the exact full-detailed IPC and the point estimate lands
    within a few percent of it."""
    result = sample_benchmark(BENCH, baseline_config(), _plan(seed=seed), budget=40_000)
    exact_ipc = exact_40k.ipc
    assert result.ipc_lo <= exact_ipc <= result.ipc_hi
    assert abs(result.ipc_point - exact_ipc) / exact_ipc < 0.05
    assert result.ipc_lo < result.ipc_point < result.ipc_hi
    # The run actually sampled: most of the horizon was fast-forwarded.
    assert result.skipped > result.measured


def test_sampled_stats_carry_error_bars_and_extras(exact_40k):
    result = sample_benchmark(BENCH, baseline_config(), _plan(), budget=12_000)
    bars = stats_error_bars(result.stats)
    assert bars == (result.ipc_lo, result.ipc_hi)
    extra = result.stats.extra
    assert extra["sampling.windows"] == float(len(result.windows))
    assert extra["sampling.instructions_measured"] == float(result.measured)
    assert extra["sampling.seed"] == float(result.plan.seed)
    # Exact stats expose no bars — the uniform renderer probe.
    assert stats_error_bars(exact_40k) is None


def test_sampling_is_deterministic():
    a = sample_benchmark(BENCH, baseline_config(), _plan(seed=5), budget=12_000)
    b = sample_benchmark(BENCH, baseline_config(), _plan(seed=5), budget=12_000)
    assert a.stats.to_dict() == b.stats.to_dict()
    assert (a.ipc_point, a.ipc_lo, a.ipc_hi) == (b.ipc_point, b.ipc_lo, b.ipc_hi)
    assert [(w.instructions, w.cycles) for w in a.windows] == \
        [(w.instructions, w.cycles) for w in b.windows]


def test_trace_warming_matches_blocks_warming_bit_exactly():
    """The two functional-warming paths — warm-variant compiled blocks
    (default tier) and trace-mode observation (reference tier) — must
    train identical predictor and cache state, so the measured windows
    are bit-identical."""
    blocks = sample_benchmark(BENCH, baseline_config(), _plan(seed=5), budget=12_000)
    traced = sample_benchmark(BENCH, baseline_config(), _plan(seed=5), budget=12_000,
                              dispatch="reference")
    assert blocks.stats.to_dict() == traced.stats.to_dict()


def test_ci_target_auto_extends_past_scheduled_budget():
    plan = _plan(seed=9, ci_target=0.10)
    result = sample_benchmark(BENCH, baseline_config(), plan, budget=4_000)
    # budget/interval schedules 2 windows; the CI target forces more.
    assert len(result.windows) > 2
    assert result.rel_halfwidth <= 0.10
    assert result.trajectory  # every CI evaluation was recorded
    assert result.trajectory[-1][0] == len(result.windows)


def test_bootstrap_cis_are_deterministic_and_degenerate_below_two_windows():
    def window(insts, cycles):
        s = SimStats(config_name="ideal")
        s.instructions, s.cycles = insts, cycles
        s.cpi_base = cycles
        return s

    windows = [window(300, 200), window(300, 260), window(300, 240)]
    a = bootstrap_cis(windows, _plan(seed=3))
    b = bootstrap_cis(windows, _plan(seed=3))
    assert a == b
    assert a["ipc_ci"][0] <= a["ipc_point"] <= a["ipc_ci"][1]

    one = bootstrap_cis([window(300, 200)], _plan(seed=3))
    assert one["ipc_ci"] == (1.5, 1.5)
    assert one["rel_halfwidth"] == float("inf")


# ------------------------------------------------------------------ keying

def test_cell_key_without_sampling_is_unchanged():
    config = baseline_config()
    key = cell_key("bzip", config, 1000, 200, 1, 0, "ref", "img")
    assert key == cell_key("bzip", config, 1000, 200, 1, 0, "ref", "img", sampling=None)
    assert "sampling=" not in key


def test_cell_key_includes_every_sampling_knob():
    config = baseline_config()
    exact = cell_key("bzip", config, 1000, 200, 1, 0, "ref", "img")
    sampled = cell_key("bzip", config, 1000, 200, 1, 0, "ref", "img",
                       sampling=_plan().canonical())
    assert sampled != exact
    assert sampled == cell_key("bzip", config, 1000, 200, 1, 0, "ref", "img",
                               sampling=_plan().canonical())
    # Every knob is identity: any change re-keys the cell.
    for overrides in ({"seed": 7}, {"window": 301}, {"interval": 2500},
                      {"ci_target": 0.05}, {"resamples": 300}):
        reseeded = cell_key("bzip", config, 1000, 200, 1, 0, "ref", "img",
                            sampling=_plan(**overrides).canonical())
        assert reseeded != sampled


# ------------------------------------------------------------------ sweeps

def test_sampled_sweep_resumes_bit_identically(tmp_path):
    """A sampled sweep cell rides the journal like an exact one: resume
    replays stored results (bars included) without re-execution."""
    names, configs = [BENCH], [baseline_config()]
    args = dict(jobs=1, journal_path=tmp_path / "sweep.journal.json",
                fault_plan=ProcessFaultPlan(), sampling=_plan())
    grid1, failures, _, report1 = run_sweep(names, configs, 8_000, 0, **args)
    assert not failures
    assert report1.cells_executed == 1

    grid2, _, _, report2 = run_sweep(names, configs, 8_000, 0, resume=True, **args)
    assert report2.cells_executed == 0 and report2.resume_hits == 1
    replayed = grid2[BENCH]["ideal"]
    assert replayed.to_dict() == grid1[BENCH]["ideal"].to_dict()
    assert stats_error_bars(replayed) is not None


def test_sampled_journal_does_not_resume_under_other_knobs(tmp_path):
    from repro.harness.errors import JournalCorruption

    names, configs = [BENCH], [baseline_config()]
    journal_path = tmp_path / "sweep.journal.json"
    run_sweep(names, configs, 8_000, 0, jobs=1, journal_path=journal_path,
              fault_plan=ProcessFaultPlan(), sampling=_plan())
    with pytest.raises(JournalCorruption):
        run_sweep(names, configs, 8_000, 0, jobs=1, journal_path=journal_path,
                  resume=True, fault_plan=ProcessFaultPlan(),
                  sampling=_plan(seed=7))


def test_sweep_rows_grow_ci_columns_only_when_sampled():
    from repro.experiments.sweep import SweepResult

    def stats(bars=None):
        s = SimStats(config_name="ideal")
        s.instructions, s.cycles = 1000, 500
        if bars is not None:
            s.extra["sampling.ipc_ci_lo"], s.extra["sampling.ipc_ci_hi"] = bars
        return s

    exact = SweepResult(benchmarks=["b"], config_names=["ideal"],
                        grid={"b": {"ideal": stats()}})
    assert not exact.sampled
    assert len(exact.rows()[0]) == 5
    assert "ipc_lo" not in exact.render()

    sampled = SweepResult(benchmarks=["b"], config_names=["ideal"],
                          grid={"b": {"ideal": stats(bars=(1.8, 2.2))}})
    assert sampled.sampled
    assert sampled.rows()[0][5:] == (1.8, 2.2)
    assert "ipc_lo" in sampled.render() and "ipc_hi" in sampled.render()


# ----------------------------------------------------------------- table 1

def test_table1_sampled_rows_carry_cis_and_render_them():
    from repro.experiments import table1

    result = table1.run((BENCH,), instructions=8_000, sampling=_plan())
    (row,) = result.rows()
    assert row.ipc_ci is not None and row.ipc_lo < row.ipc < row.ipc_hi
    assert result.sampled
    assert "IPC 95% CI" in result.render()

    exact = table1.run((BENCH,), instructions=2_000, warmup=500)
    assert not exact.sampled
    assert "IPC 95% CI" not in exact.render()


def test_figure_check_scores_by_ci_overlap():
    from repro.experiments.report import FigureCheck, PaperTarget

    band = PaperTarget("Table 1", "ipc", 1.0, 2.0, "paper")
    assert FigureCheck(band, 0.9).ok is False                  # point outside
    assert FigureCheck(band, 0.9, ci=(0.8, 1.1)).ok is True    # CI overlaps band
    assert FigureCheck(band, 0.9, ci=(0.7, 0.95)).ok is False  # CI disjoint
    assert FigureCheck(band, 2.1, ci=(1.9, 2.3)).ok is True
    assert FigureCheck(band, 1.5, ci=(1.4, 1.6)).ok is True
    assert "[0.8, 1.1]" in FigureCheck(band, 0.9, ci=(0.8, 1.1)).value_cell()
    assert FigureCheck(band, 0.9, ci=(0.8, 1.1)).to_dict()["ci"] == [0.8, 1.1]
