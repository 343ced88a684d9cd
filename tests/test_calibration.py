"""Committed workload calibration: oracle, digest guard and fallback.

Every skip point and long-horizon budget comes from
``suite._iter_costs_cached``.  It serves the committed ``(init,
per_iter)`` of :mod:`repro.workloads.calibration` only while both
recorded image digests match, and otherwise re-runs the two-point fit.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

from repro.emulator.machine import Machine
from repro.workloads import get_workload, suite
from repro.workloads.calibration import CALIBRATION

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "calibrate_workloads.py"


def _script():
    spec = importlib.util.spec_from_file_location("calibrate_workloads", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture()
def fresh_lookup():
    """Empty the lookup's and the builder's caches before and after."""
    suite._iter_costs_cached.cache_clear()
    suite._build_cached.cache_clear()
    yield
    suite._iter_costs_cached.cache_clear()
    suite._build_cached.cache_clear()


@pytest.fixture()
def fit_spy(monkeypatch):
    """Record every call of the fit the lookup falls back to."""
    calls = []
    real = suite.fit_iter_costs

    def spy(name, profile="ref"):
        calls.append((name, profile))
        return real(name, profile)

    monkeypatch.setattr(suite, "fit_iter_costs", spy)
    return calls


def test_table_covers_every_workload_and_profile():
    assert set(CALIBRATION) == {
        (name, profile) for name in suite.BENCHMARK_NAMES for profile in suite.PROFILES
    }


@pytest.mark.parametrize("name, profile", sorted(CALIBRATION))
def test_committed_entry_matches_a_fresh_fit(name, profile):
    """Oracle: the fit reproduces each entry and both digests match."""
    init, per_iter, *digests = CALIBRATION[(name, profile)]
    assert suite.fit_iter_costs(name, profile) == (init, per_iter)
    assert suite.calibration_digests(name, profile) == tuple(digests)


def test_ref_values_are_the_two_point_fit():
    """The values the report's skips have always used (ROADMAP item 1)."""
    expected = {
        "bzip": (311486, 278979),
        "li": (490593, 93744),
        "mcf": (950948, 302748),
        "twolf": (256022, 459),
    }
    for name, costs in expected.items():
        assert CALIBRATION[(name, "ref")][:2] == costs


def test_matching_entry_runs_no_guest(fresh_lookup, fit_spy, monkeypatch):
    def no_run(self, *args, **kwargs):
        raise AssertionError("calibration ran the guest")

    monkeypatch.setattr(Machine, "run", no_run)
    assert suite.skip_hint("li") == CALIBRATION[("li", "ref")][0]
    assert get_workload("li").iters_for_budget(1_000_000) >= 1
    assert fit_spy == []
    # Nothing assembled for the digest check stays cached.
    assert suite._build_cached.cache_info().currsize == 0


def test_wrong_digest_takes_the_fit(fresh_lookup, fit_spy, monkeypatch):
    init, per_iter, image1, image2 = CALIBRATION[("go", "test")]
    table = dict(CALIBRATION)
    table[("go", "test")] = (init + 1, per_iter, image1, "0" * 64)
    monkeypatch.setattr(suite, "CALIBRATION", table)
    assert suite._iter_costs_cached("go", "test") == (init, per_iter)
    assert fit_spy == [("go", "test")]


def test_missing_entry_takes_the_fit(fresh_lookup, fit_spy, monkeypatch):
    table = dict(CALIBRATION)
    del table[("go", "ref")]
    monkeypatch.setattr(suite, "CALIBRATION", table)
    assert suite._iter_costs_cached("go", "ref") == CALIBRATION[("go", "ref")][:2]
    assert fit_spy == [("go", "ref")]


def test_edited_workload_takes_the_fit_and_its_init_grows(fresh_lookup, fit_spy, monkeypatch):
    """Extra startup instructions change both images: the fit runs and
    init grows by exactly the count added, per_iter not at all."""
    added = 7
    module = importlib.import_module("repro.workloads.go")
    real_source = module.source

    def edited(iters, footprint_divisor=1):
        text = real_source(iters, footprint_divisor=footprint_divisor)
        assert text.count("main:") == 1
        return text.replace("main:", "main:   nop\n" + "        nop\n" * (added - 1) + "        ", 1)

    monkeypatch.setattr(module, "source", edited)
    init, per_iter = CALIBRATION[("go", "test")][:2]
    assert suite._iter_costs_cached("go", "test") == (init + added, per_iter)
    assert fit_spy == [("go", "test")]


def test_every_lookup_shares_one_cached_fit(fresh_lookup):
    """skip_hint, iters_for_budget and trace's default skip all go
    through the one lru_cache'd lookup."""
    workload = get_workload("go")
    suite.skip_hint("go", "train")
    workload.iters_for_budget(50_000, profile="train")
    next(workload.trace(1, profile="train"))
    info = suite._iter_costs_cached.cache_info()
    assert (info.misses, info.hits) == (1, 2)


def test_script_renders_the_committed_module():
    module = _script()
    committed = Path(suite.__file__).with_name("calibration.py").read_text()
    assert module.render(CALIBRATION) == committed


def test_script_check_lists_each_stale_entry():
    module = _script()
    committed = dict(CALIBRATION)
    measured = dict(CALIBRATION)
    init, per_iter, image1, image2 = measured[("li", "ref")]
    measured[("li", "ref")] = (init + 3, per_iter, image1, "f" * 64)
    del committed[("mcf", "test")]
    problems = module.stale(committed, measured)
    assert problems == [
        f"li/ref: init {init} != {init + 3}; image iters=2 {image2} != {'f' * 64}",
        f"mcf/test: missing (measured {CALIBRATION[('mcf', 'test')][:2]})",
    ]
    assert module.stale(CALIBRATION, dict(CALIBRATION)) == []
