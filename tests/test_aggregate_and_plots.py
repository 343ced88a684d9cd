"""ASCII chart rendering."""

from repro.experiments.ascii_plot import hbar_chart, line_plot, stacked_hbar


def test_hbar_chart_basic():
    text = hbar_chart([("one", 1.0), ("two", 2.0)], width=20)
    lines = text.splitlines()
    assert len(lines) == 2
    assert lines[1].count("#") == 20          # max value fills the bar
    assert lines[0].count("#") == 10


def test_hbar_chart_with_ticks():
    text = hbar_chart([("a", 1.0)], width=20, ticks={"a": 2.0})
    assert "|" in text


def test_hbar_empty():
    assert "(no data)" in hbar_chart([])


def test_line_plot_contains_all_series_markers():
    series = {
        "s1": [(0, 0.0), (16, 0.5), (32, 1.0)],
        "s2": [(0, 1.0), (32, 0.0)],
    }
    text = line_plot(series, width=40, height=8)
    assert "o" in text and "x" in text
    assert "s1" in text and "s2" in text


def test_line_plot_empty():
    assert "(no data)" in line_plot({})


def test_stacked_hbar_segments():
    text = stacked_hbar([("row", [0.5, 0.25, 0.25])], width=40)
    assert "#" in text and "=" in text and "+" in text
    assert "1.000" in text


def test_stacked_hbar_respects_width():
    text = stacked_hbar([("r", [1.0, 1.0])], width=30)
    body = text.split("[")[1].split("]")[0]
    assert len(body) == 30
