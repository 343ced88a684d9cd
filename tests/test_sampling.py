"""Statistical sampling engine: accuracy, determinism, keying, sweeps."""

from __future__ import annotations

import dataclasses

import pytest

from repro.core.config import baseline_config, bitslice_config
from repro.experiments.journal import cell_key
from repro.experiments.runner import collect_trace
from repro.experiments.supervisor import run_sweep
from repro.experiments.sweep import CONFIG_BUILDERS
from repro.harness.errors import RunawayExecution
from repro.harness.faults import ProcessFaultPlan
from repro.harness.watchdog import Watchdog
from repro.obs import guestprof
from repro.timing import sampling, simulator
from repro.timing.frontend import FORWARDED
from repro.timing.sampling import (
    SamplingPlan,
    bootstrap_cis,
    sample_benchmark,
    sample_configs,
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
        {"interval": 300},          # cannot fit warmup + window
        {"ci_target": 1.0},
        {"ci_target": -0.1},
        # < MIN_WINDOWS; the explicit id is the one this case had when
        # confidence, min_windows and resamples were plan knobs.
        pytest.param({"max_windows": 1}, id="overrides8"),
    ],
)
def test_plan_validation_rejects_bad_knobs(overrides):
    with pytest.raises(ValueError):
        dataclasses.replace(PLAN, **overrides).validate()


def test_plan_canonical_is_a_full_identity():
    assert _plan().canonical() == _plan().canonical()
    base = _plan().canonical()
    for overrides in ({"window": 301}, {"interval": 2500}, {"seed": 99},
                      {"ci_target": 0.05}, {"max_windows": 100}):
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


# ------------------------------------------------------ grouped configs

#: All five sweep configs; they share one front-end key.
SWEEP_CONFIGS = [build() for build in CONFIG_BUILDERS.values()]

#: gzip from its first instruction: window 7 of 20 holds 18 hazard
#: loads (stores to the same word in flight, line off its MRU way).
HAZARD_RUN = dict(name="gzip", plan=_plan(seed=2), budget=40_000, skip=0)


def _outcome(result):
    return (result.stats.to_dict(), result.stats.extra, result.cpi_ci,
            (result.ipc_point, result.ipc_lo, result.ipc_hi, result.rel_halfwidth))


def _assert_standalone(configs, grouped, name, plan, budget, **kw):
    assert [r.stats.config_name for r in grouped] == [c.name for c in configs]
    for config, result in zip(configs, grouped, strict=True):
        alone = sample_benchmark(name, config, plan, budget, **kw)
        assert _outcome(result) == _outcome(alone), config.name


@pytest.fixture
def groups_run(monkeypatch):
    """Records the configs of every machine ``sample_configs`` builds."""
    calls = []
    real = sampling._sample_group

    def spy(name, configs, *args):
        calls.append([c.name for c in configs])
        return real(name, configs, *args)

    monkeypatch.setattr(sampling, "_sample_group", spy)
    return calls


def test_sample_configs_share_one_machine_and_equal_standalone_runs(groups_run):
    """The hazard-free cheap plan: one machine, every result standalone."""
    configs = [baseline_config(), bitslice_config(4)]
    grouped = sample_configs(BENCH, configs, _plan(), 12_000)
    assert groups_run == [["ideal", "bitslice-4"]]
    _assert_standalone(configs, grouped, BENCH, _plan(), 12_000)


def test_riders_replay_the_leads_hazard_decisions(groups_run, monkeypatch):
    """Every sweep config rides through a hazard window, deciding each
    hazard load as the lead did, and still equals its standalone run."""
    decisions = []
    real_run = simulator.TimingSimulator.run

    def run(self, trace, *args, **kwargs):
        replaying = self._replay is not None
        stats = real_run(self, trace, *args, **kwargs)
        if self.front_end.hazards:
            decisions.append((self.config.name, replaying, list(self.front_end.decisions)))
        return stats

    monkeypatch.setattr(simulator.TimingSimulator, "run", run)
    grouped = sample_configs(HAZARD_RUN["name"], SWEEP_CONFIGS, HAZARD_RUN["plan"],
                             HAZARD_RUN["budget"], skip=0)
    assert groups_run == [[c.name for c in SWEEP_CONFIGS]]
    assert [(name, replaying) for name, replaying, _ in decisions] == [
        (c.name, i > 0) for i, c in enumerate(SWEEP_CONFIGS)
    ]
    assert len({tuple(d) for _, _, d in decisions}) == 1 and decisions[0][2]
    monkeypatch.setattr(simulator.TimingSimulator, "run", real_run)
    _assert_standalone(SWEEP_CONFIGS, grouped, **HAZARD_RUN)


def _flip_first_decision(monkeypatch) -> list[str]:
    """Flip the first hazard decision a lead records (once): the rider
    forwards where the lead (now) read the cache, so it drops out.
    Returns the list the flipped lead's name is appended to."""
    real_run = simulator.TimingSimulator.run
    flipped = []

    def run(self, trace, *args, **kwargs):
        replaying = self._replay is not None
        stats = real_run(self, trace, *args, **kwargs)
        decisions = self.front_end.decisions
        if not replaying and not flipped and decisions:
            assert decisions[0] == FORWARDED
            decisions[0] = 1 << 2 | 1  # an L1 hit
            flipped.append(self.config.name)
        return stats

    monkeypatch.setattr(simulator.TimingSimulator, "run", run)
    return flipped


def test_rider_that_decides_a_hazard_differently_runs_on_its_own(groups_run, monkeypatch):
    """A rider that drops out is re-run alone and equals its standalone run."""
    flipped = _flip_first_decision(monkeypatch)
    configs = [baseline_config(), bitslice_config(4)]
    grouped = sample_configs(HAZARD_RUN["name"], configs, HAZARD_RUN["plan"],
                             HAZARD_RUN["budget"], skip=0)
    assert flipped == ["ideal"]
    assert groups_run == [["ideal", "bitslice-4"], ["bitslice-4"]]
    _assert_standalone(configs, grouped, **HAZARD_RUN)


@pytest.mark.parametrize("rerun_starts_at, times_out", [(2.8, False), (3.2, True)])
def test_rider_rerun_gets_one_more_share_of_the_wall_budget(
    groups_run, monkeypatch, rerun_starts_at, times_out
):
    """Two configs with one second each: the call's budget is two
    seconds, and the diverging rider's re-run adds the third it would
    have had on its own (clock seconds are simulated)."""
    _flip_first_decision(monkeypatch)
    now = [0.0]
    spy = sampling._sample_group

    def jump_before_rerun(name, configs, *args):
        if len(configs) == 1:
            now[0] = rerun_starts_at
        return spy(name, configs, *args)

    monkeypatch.setattr(sampling, "_sample_group", jump_before_rerun)
    watchdog = Watchdog(max_seconds=2.0, check_every=1, clock=lambda: now[0])
    configs = [baseline_config(), bitslice_config(4)]

    def run():
        return sample_configs(HAZARD_RUN["name"], configs, HAZARD_RUN["plan"],
                              HAZARD_RUN["budget"], skip=0, watchdog=watchdog)

    if times_out:
        with pytest.raises(RunawayExecution, match="3s"):
            run()
        return
    grouped = run()
    assert groups_run == [["ideal", "bitslice-4"], ["bitslice-4"]]
    assert watchdog.max_seconds == 3.0
    _assert_standalone(configs, grouped, **HAZARD_RUN)


def test_config_with_its_own_front_end_runs_on_its_own(groups_run):
    small = dataclasses.replace(baseline_config(), gshare_entries=1024, name="ideal-gshare1k")
    configs = [baseline_config(), small, bitslice_config(4)]
    grouped = sample_configs(BENCH, configs, _plan(), 8_000)
    assert groups_run == [["ideal", "bitslice-4"], ["ideal-gshare1k"]]
    _assert_standalone(configs, grouped, BENCH, _plan(), 8_000)


@pytest.mark.parametrize("case", ["ci_target", "reference"])
def test_configs_run_on_their_own_when_they_cannot_share(groups_run, monkeypatch, case):
    """A CI target stops each config at its own window count; the
    reference loop walks its own predictor and caches."""
    plan = _plan(seed=9, ci_target=0.10) if case == "ci_target" else _plan()
    if case == "reference":
        monkeypatch.setenv("REPRO_TIMING", "reference")
    configs = [baseline_config(), bitslice_config(4)]
    grouped = sample_configs(BENCH, configs, plan, 4_000)
    assert groups_run == [["ideal"], ["bitslice-4"]]
    _assert_standalone(configs, grouped, BENCH, plan, 4_000)


def test_grouped_guest_profile_counts_each_config_like_a_standalone_run(monkeypatch):
    """Guest profile: riders count each window's records as a standalone
    run would, and a rider that drops out contributes only its
    standalone re-run."""
    real_run = simulator.TimingSimulator.run
    flipped = []

    def run(self, trace, *args, **kwargs):
        replaying = self._replay is not None
        stats = real_run(self, trace, *args, **kwargs)
        if not replaying and not flipped and self.front_end.decisions:
            self.front_end.decisions[0] = 1 << 2 | 1
            flipped.append(True)
        return stats

    configs = [baseline_config(), bitslice_config(2), bitslice_config(4)]
    profiles = []
    for flip in (False, True):
        if flip:
            monkeypatch.setattr(simulator.TimingSimulator, "run", run)
        guestprof.start_guest_profile()
        sample_configs(HAZARD_RUN["name"], configs, HAZARD_RUN["plan"],
                       HAZARD_RUN["budget"], skip=0)
        profiles.append(guestprof.end_guest_profile().to_dict())
    monkeypatch.setattr(simulator.TimingSimulator, "run", real_run)
    assert flipped
    guestprof.start_guest_profile()
    for config in configs:
        sample_benchmark(HAZARD_RUN["name"], config, HAZARD_RUN["plan"],
                         HAZARD_RUN["budget"], skip=0)
    alone = guestprof.end_guest_profile().to_dict()
    assert profiles == [alone, alone]
    (bucket,) = alone["benchmarks"].values()
    assert bucket["retired"] == 3 * 20 * 400


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
                      {"ci_target": 0.05}, {"max_windows": 100}):
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


#: A sampled sweep with a guest profile, as typed at the command line.
PROFILED_SWEEP = [
    "sweep", "--sample", "-n", "20000", "--sample-window", "300", "--sample-warmup", "100",
    "--sample-interval", "2000", "--configs", "ideal",
]


def _profiled_sweep(out, names, jobs):
    from repro.experiments.cli import main

    assert main([*PROFILED_SWEEP, "-b", *names, "--jobs", str(jobs),
                 "--guest-profile-out", str(out)]) == 0
    return guestprof.load_profile(out).benchmarks


@pytest.fixture(scope="module")
def profiled_alone(tmp_path_factory):
    """bzip's and mcf's profile buckets from one-benchmark sampled sweeps."""
    out = tmp_path_factory.mktemp("profiles")
    return {
        name: _profiled_sweep(out / f"{name}.json", [name], 1)[name] for name in ("bzip", "mcf")
    }


@pytest.mark.parametrize("jobs", [1, 2])
def test_sampled_sweep_profiles_each_benchmark(tmp_path, profiled_alone, jobs, capsys):
    """A sampled sweep opens each benchmark's guest-profile bucket: every
    bucket holds what a one-benchmark sweep of it counts."""
    both = _profiled_sweep(tmp_path / "both.json", ["bzip", "mcf"], jobs)
    assert set(both) == {"bzip", "mcf"}
    for name, alone in profiled_alone.items():
        assert (both[name].retired, both[name].cycles_total) == (
            alone.retired, alone.cycles_total
        ), name
        assert both[name].retired > 0


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
