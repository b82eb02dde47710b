"""ASCII chart rendering.

The paper's figures are bar/line charts; the benchmark suite renders
text equivalents so the regenerated "figures" are readable in a
terminal and diffable in CI. Crashed cells render as ``X`` bars.
"""

from __future__ import annotations

import math


def _human_bytes(value):
    """``1536`` -> ``1.5KB``; None (nothing recorded) -> ``—``. The one
    byte formatter of the run, trace and history reports."""
    if value is None:
        return "—"
    value = float(value)
    for unit in ("B", "KB", "MB", "GB", "TB"):
        if abs(value) < 1024.0 or unit == "TB":
            if unit == "B":
                return f"{int(value)}B"
            return f"{value:.1f}{unit}"
        value /= 1024.0


def _fmt(value):
    if value is None or (isinstance(value, float) and math.isinf(value)):
        return "X"
    return f"{value:.1f}"


def bar_chart(title, items, width=40, unit=""):
    """Render labelled horizontal bars.

    ``items`` is a list of (label, value) pairs; value None or inf
    marks a crash.
    """
    lines = [f"### {title}"]
    finite = [v for _, v in items
              if v is not None and not math.isinf(v)]
    peak = max(finite) if finite else 1.0
    label_width = max((len(str(label)) for label, _ in items), default=0)
    for label, value in items:
        if value is None or math.isinf(value):
            bar = "X (crash)"
        else:
            filled = int(round(width * value / peak)) if peak else 0
            bar = "#" * max(1, filled) + f"  {_fmt(value)}{unit}"
        lines.append(f"{str(label).ljust(label_width)} | {bar}")
    return "\n".join(lines)


def line_chart(title, series, xs, height=10, width=None, unit=""):
    """Render one or more series as an ASCII scatter/line chart.

    ``series`` maps name -> list of values aligned with ``xs``.
    Each series is plotted with its own marker character.
    """
    markers = "*+o^#@"
    width = width or max(24, 6 * len(xs))
    values = [
        v for points in series.values() for v in points
        if v is not None and not math.isinf(v)
    ]
    if not values:
        return f"### {title}\n(no data)"
    low, high = min(values), max(values)
    span = (high - low) or 1.0
    grid = [[" "] * width for _ in range(height)]
    for index, (name, points) in enumerate(series.items()):
        marker = markers[index % len(markers)]
        for position, value in enumerate(points):
            if value is None or math.isinf(value):
                continue
            col = int(position / max(1, len(xs) - 1) * (width - 1))
            row = height - 1 - int((value - low) / span * (height - 1))
            grid[row][col] = marker
    lines = [f"### {title}"]
    lines.append(f"{_fmt(high)}{unit}")
    lines.extend("  |" + "".join(row) for row in grid)
    lines.append(f"{_fmt(low)}{unit}")
    lines.append("   " + "-" * width)
    axis = "   "
    for position, x in enumerate(xs):
        col = int(position / max(1, len(xs) - 1) * (width - 1))
        label = str(x)
        pad = col + 3 - len(axis)
        if pad >= 0:
            axis += " " * pad + label
    lines.append(axis)
    legend = "   " + "   ".join(
        f"{markers[i % len(markers)]} {name}"
        for i, name in enumerate(series)
    )
    lines.append(legend)
    return "\n".join(lines)
