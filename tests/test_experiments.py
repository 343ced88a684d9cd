"""Experiment layer: each table/figure regenerates at small scale."""

import hashlib

import pytest

from repro.experiments import figure2, figure4, figure6, figure11, figure12, table1
from repro.experiments.ascii_plot import render_series, render_stack, render_table
from repro.experiments.runner import collect_trace, sweep_configs
from repro.core.config import baseline_config, simple_pipeline_config

N = 4000
W = 1000
BENCHES = ("li", "go")


def test_collect_trace_cached():
    a = collect_trace("go", 2000)
    b = collect_trace("go", 2000)
    assert a is b
    assert len(a) == 2000


def test_sweep_configs_runs_each():
    stats = sweep_configs("go", [baseline_config(), simple_pipeline_config(2)], max_steps=2000, warmup=500)
    assert len(stats) == 2
    assert stats[0].ipc > stats[1].ipc


def test_table1(capsys):
    result = table1.run(BENCHES, instructions=N, warmup=W)
    rows = result.rows()
    assert [r.benchmark for r in rows] == list(BENCHES)
    for row in rows:
        assert 0 < row.ipc <= 4
        assert 0 <= row.load_fraction < 1
        assert 0 < row.branch_accuracy <= 1
    text = result.render()
    assert "Table 1" in text and "li" in text


def test_figure2():
    result = figure2.run(("li",), instructions=N, bits=(2, 9, 31))
    assert result.resolved_by("li", 31) == pytest.approx(1.0)
    assert 0 <= result.resolved_by("li", 2) <= 1
    assert result.rows()
    assert "Figure 2" in result.render()


def test_figure4():
    result = figure4.run(instructions=N, panels=(("li", 8 * 1024, 32),), associativities=(2, 4), warmup=W)
    assert set(result.panels) == {("li", 2), ("li", 4)}
    assert "Figure 4" in result.render()
    for char in result.panels.values():
        assert char.accesses > 0


def test_figure6():
    result = figure6.run(BENCHES, instructions=N, warmup=W)
    assert set(result.curves) == set(BENCHES)
    assert 0 <= result.mean_detected_at_1 <= result.mean_detected_at_8 <= 1
    assert 0 <= result.mean_eq_branch_fraction <= 1
    assert "Figure 6" in result.render()


@pytest.fixture(scope="module")
def fig11_result():
    return figure11.run(("li",), instructions=N, slice_counts=(2,), warmup=W)


def test_figure11(fig11_result):
    r = fig11_result
    assert r.ideal_ipc("li") > 0
    assert r.simple_ipc("li", 2) < r.ideal_ipc("li")
    assert r.ipc("li", 2) >= r.simple_ipc("li", 2)
    assert 0.5 < r.mean_relative_to_ideal(2) <= 1.05
    assert "Figure 11" in r.render()
    assert len(r.rows()) > 0


def test_figure12(fig11_result):
    r = figure12.run(base=fig11_result)
    incs = r.increments("li", 2)
    assert len(incs) == 5
    total = r.total_speedup("li", 2)
    assert total == pytest.approx(sum(v for _, v in incs), abs=1e-9)
    assert "Figure 12" in r.render()


def test_report_renderers():
    table = render_table(["a", "b"], [[1, 2.5], ["x", "y"]], title="T")
    assert "T" in table and "2.500" in table
    series = render_series("s", [(1, 0.5)])
    assert "1=0.500" in series
    stack = render_stack("S", ["c1"], {3: [0.25]})
    assert "25.0%" in stack


def test_workload_table():
    from repro.experiments import workload_table

    result = workload_table.run(("go",), instructions=N)
    rows = result.rows()
    assert rows[0][0] == "go"
    assert "Workload characteristics" in result.render()


def test_figure1_experiment():
    from repro.experiments import figure1

    result = figure1.run(window=8)
    assert set(result.ipcs) == {"ideal", "simple-pipe-2", "bitslice-2"}
    assert result.chain_span("simple-pipe-2") >= result.chain_span("ideal")
    assert "Figure 1" in result.render()
    assert len(result.rows()) == 3


#: sha256 of Figure 1's rendered timelines: at the default window, and
#: at ``window=8``.  The report digest pins only its IPCs and spans.
FIGURE1_RENDER_SHA256 = {
    None: "b40ffb07a6d59a956d4e133a4612090570151395a410aad2b3bc0f760ea5bfed",
    8: "273fc4f2b466e83b83052f349bf4926372735dffe5378c03084ed86395e89315",
}


@pytest.mark.parametrize("mode", ["fast", "reference"])
def test_figure1_render_is_pinned(mode, monkeypatch):
    from repro.experiments import figure1

    monkeypatch.setenv("REPRO_TIMING", mode)
    for window, digest in FIGURE1_RENDER_SHA256.items():
        result = figure1.run() if window is None else figure1.run(window=window)
        assert hashlib.sha256(result.render().encode()).hexdigest() == digest, window
