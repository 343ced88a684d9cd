"""ASCII charts for experiment results.

Terminal-friendly renderings of the paper's figures: horizontal bar
charts (the Figure 11 IPC bars, with the ideal machine drawn as a tick
mark, matching the paper's thin ideal bars) and multi-series line plots
(the Figure 6 detection curves), plus the fixed-width tables, series
and stacks (:func:`render_table`, :func:`render_series`,
:func:`render_stack`) that the experiment modules' ``render()`` methods
share.
"""

from __future__ import annotations

from collections.abc import Sequence


def hbar_chart(
    rows: Sequence[tuple[str, float]],
    width: int = 50,
    max_value: float | None = None,
    fmt: str = "{:.3f}",
    ticks: dict[str, float] | None = None,
) -> str:
    """Horizontal bars, one per (label, value) row.

    *ticks* optionally marks a reference value per label with ``|``
    (used for the ideal-machine IPC in the Figure 11 rendering).
    """
    if not rows:
        return "(no data)"
    top = max_value if max_value is not None else max(v for _, v in rows + [(None, 0.0)])
    if ticks:
        top = max(top, max(ticks.values()))
    top = top or 1.0
    label_w = max(len(label) for label, _ in rows)
    lines = []
    for label, value in rows:
        filled = round(width * value / top)
        bar = list("#" * filled + " " * (width - filled))
        if ticks and label in ticks:
            pos = min(width - 1, round(width * ticks[label] / top))
            bar[pos] = "|"
        lines.append(f"{label:<{label_w}} [{''.join(bar)}] {fmt.format(value)}")
    return "\n".join(lines)


def line_plot(
    series: dict[str, Sequence[tuple[float, float]]],
    width: int = 64,
    height: int = 16,
    y_max: float = 1.0,
    x_label: str = "",
    y_label: str = "",
) -> str:
    """Multi-series scatter/line plot on a character grid.

    Each series gets a distinct marker; collisions show the later
    series' marker.  Intended for the Figure 6 cumulative curves.
    """
    if not series:
        return "(no data)"
    markers = "ox+*#@%&$~"
    xs = [x for pts in series.values() for x, _ in pts]
    if not xs:
        return "(no data)"
    x_min, x_max = min(xs), max(xs)
    span = (x_max - x_min) or 1
    grid = [[" "] * width for _ in range(height)]
    for (name, pts), marker in zip(series.items(), markers * 10):
        for x, y in pts:
            col = round((x - x_min) / span * (width - 1))
            row = height - 1 - round(min(max(y, 0.0), y_max) / y_max * (height - 1))
            grid[row][col] = marker
    lines = []
    for i, row in enumerate(grid):
        y_val = y_max * (height - 1 - i) / (height - 1)
        prefix = f"{y_val:5.2f} |" if i % 4 == 0 or i == height - 1 else "      |"
        lines.append(prefix + "".join(row))
    lines.append("      +" + "-" * width)
    lines.append(f"       {x_min:<10g}{x_label:^{max(0, width - 20)}}{x_max:>10g}")
    legend = "  ".join(f"{m}={n}" for (n, _), m in zip(series.items(), markers * 10))
    lines.append(f"      [{legend}]")
    if y_label:
        lines.insert(0, f"      {y_label}")
    return "\n".join(lines)


def stacked_hbar(
    rows: Sequence[tuple[str, Sequence[float]]],
    segment_chars: str = "#=+*o.",
    width: int = 50,
    max_value: float | None = None,
) -> str:
    """Stacked horizontal bars (the Figure 12 decomposition shape)."""
    if not rows:
        return "(no data)"
    totals = [sum(vals) for _, vals in rows]
    top = max_value if max_value is not None else max(totals) or 1.0
    label_w = max(len(label) for label, _ in rows)
    lines = []
    for (label, vals), total in zip(rows, totals):
        bar = []
        for value, ch in zip(vals, segment_chars * 10):
            bar.append(ch * round(width * value / top))
        body = "".join(bar)[:width]
        lines.append(f"{label:<{label_w}} [{body:<{width}}] {total:.3f}")
    return "\n".join(lines)


def render_table(headers: Sequence[str], rows: Sequence[Sequence[object]], title: str = "") -> str:
    """Simple fixed-width table."""
    cols = len(headers)
    cells = [[_fmt(c) for c in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in cells:
        for i in range(cols):
            widths[i] = max(widths[i], len(row[i]))
    sep = "-+-".join("-" * w for w in widths)
    out = []
    if title:
        out.append(title)
    out.append(" | ".join(h.ljust(w) for h, w in zip(headers, widths)))
    out.append(sep)
    for row in cells:
        out.append(" | ".join(c.ljust(w) for c, w in zip(row, widths)))
    return "\n".join(out)


def render_series(name: str, points: Sequence[tuple[object, float]], fmt: str = "{:.3f}") -> str:
    """One figure series as ``name: x=y`` pairs."""
    body = "  ".join(f"{x}={fmt.format(y)}" for x, y in points)
    return f"{name}: {body}"


def render_stack(
    title: str,
    categories: Sequence[str],
    per_x: dict[object, Sequence[float]],
    fmt: str = "{:5.1%}",
) -> str:
    """A stacked-bar figure as text: one line per x value."""
    out = [title, "  " + "  ".join(categories)]
    for x, values in per_x.items():
        out.append(f"{x!s:>6} " + "  ".join(fmt.format(v) for v in values))
    return "\n".join(out)


def _fmt(value: object) -> str:
    if isinstance(value, float):
        return f"{value:.3f}"
    return str(value)
