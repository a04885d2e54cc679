"""Text-mode chart rendering for figure data.

The bench output is data-first, but a human scanning a terminal wants
the *shape*.  These renderers draw horizontal bar charts, box-plot
strips, and log-log scatter plots in plain text, entirely
deterministically.
"""

from __future__ import annotations

import math

from ..analysis.stats import BoxplotStats
from ..errors import AnalysisError

_BAR = "█"
_DOT = "•"


def bar_chart(items: dict[str, float], width: int = 40,
              value_format: str = "{:.2f}") -> str:
    """Horizontal bar chart of label -> value."""
    if not items:
        raise AnalysisError("no items to chart")
    if width < 4:
        raise AnalysisError("chart width must be at least 4")
    label_width = max(len(label) for label in items)
    peak = max(items.values())
    lines = []
    for label, value in items.items():
        if peak > 0:
            filled = max(0, round(width * value / peak))
        else:
            filled = 0
        bar = _BAR * filled
        rendered_value = value_format.format(value)
        lines.append(f"{label.ljust(label_width)} |{bar:<{width}}| "
                     f"{rendered_value}")
    return "\n".join(lines)


def box_strip(label: str, box: BoxplotStats, low: float, high: float,
              width: int = 50, log: bool = False) -> str:
    """One box-plot row rendered as ``---[==|==]---`` over an axis.

    ``low``/``high`` are the axis bounds shared across rows; ``log``
    plots on a log10 axis (all values must then be positive).
    """
    if high <= low:
        raise AnalysisError(f"bad axis bounds [{low}, {high}]")

    def position(value: float) -> int:
        if log:
            if low <= 0:
                raise AnalysisError("log axis requires positive bounds")
            # Zero-rate units (a car with no disengagements) clamp to
            # the axis floor rather than breaking the panel.
            value = max(value, low)
            fraction = ((math.log10(value) - math.log10(low))
                        / (math.log10(high) - math.log10(low)))
        else:
            fraction = (value - low) / (high - low)
        return int(round(min(max(fraction, 0.0), 1.0) * (width - 1)))

    cells = [" "] * width
    lo, q1 = position(box.minimum), position(box.q1)
    median, q3 = position(box.median), position(box.q3)
    hi = position(box.maximum)
    for i in range(lo, q1):
        cells[i] = "-"
    for i in range(q1, q3 + 1):
        cells[i] = "="
    for i in range(q3 + 1, hi + 1):
        cells[i] = "-"
    cells[q1] = "["
    cells[min(q3, width - 1)] = "]"
    cells[median] = "|"
    return f"{label:18s} {''.join(cells)}"


def box_panel(boxes: dict[str, BoxplotStats], width: int = 50,
              log: bool = False) -> str:
    """A panel of aligned box strips sharing one axis."""
    if not boxes:
        raise AnalysisError("no boxes to render")
    values: list[float] = []
    for box in boxes.values():
        values.extend([box.minimum, box.maximum])
    positives = [v for v in values if v > 0]
    if log and not positives:
        raise AnalysisError("log axis requires positive values")
    low = min(positives) if log else min(values)
    high = max(values)
    if high <= low:
        high = low + 1.0
    lines = [box_strip(label, box, low, high, width, log)
             for label, box in boxes.items()]
    axis = (f"{'':18s} {_axis_label(low)}"
            f"{' ' * (width - len(_axis_label(low)) - len(_axis_label(high)))}"
            f"{_axis_label(high)}")
    lines.append(axis)
    return "\n".join(lines)


def _axis_label(value: float) -> str:
    if value != 0 and (abs(value) < 0.01 or abs(value) >= 10000):
        return f"{value:.0e}"
    return f"{value:g}"


def scatter(x: list[float], y: list[float], width: int = 60,
            height: int = 18, loglog: bool = False) -> str:
    """Text scatter plot of ``(x, y)`` points."""
    if len(x) != len(y):
        raise AnalysisError("x and y lengths differ")
    points = [(a, b) for a, b in zip(x, y)
              if not loglog or (a > 0 and b > 0)]
    if len(points) < 2:
        raise AnalysisError("need at least 2 plottable points")
    if loglog:
        points = [(math.log10(a), math.log10(b)) for a, b in points]
    xs = [p[0] for p in points]
    ys = [p[1] for p in points]
    x_low, x_high = min(xs), max(xs)
    y_low, y_high = min(ys), max(ys)
    x_span = (x_high - x_low) or 1.0
    y_span = (y_high - y_low) or 1.0
    grid = [[" "] * width for _ in range(height)]
    for a, b in points:
        col = int((a - x_low) / x_span * (width - 1))
        row = int((b - y_low) / y_span * (height - 1))
        grid[height - 1 - row][col] = _DOT
    lines = ["+" + "-" * width + "+"]
    for row in grid:
        lines.append("|" + "".join(row) + "|")
    lines.append("+" + "-" * width + "+")
    prefix = "log10 " if loglog else ""
    lines.append(f"{prefix}x: [{x_low:.2f}, {x_high:.2f}]  "
                 f"{prefix}y: [{y_low:.2f}, {y_high:.2f}]  "
                 f"n={len(points)}")
    return "\n".join(lines)

