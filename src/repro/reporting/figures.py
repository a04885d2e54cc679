"""Plain-text figure rendering: series and box-plot summaries.

The harness does not draw pixels; a "figure" here is the exact data a
plot would show — series of (x, y) points, box summaries, fit
parameters — rendered as aligned text so the bench output can be
compared line-by-line against the paper's figures.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from ..analysis.stats import BoxplotStats


@dataclass
class Series:
    """One plotted series of a figure."""

    name: str
    x: list[float]
    y: list[float]
    #: Optional fit annotation ("slope=-0.52 r2=0.91").
    annotation: str = ""

    def head(self, k: int = 5) -> list[tuple[float, float]]:
        """First ``k`` points (for compact rendering)."""
        return list(zip(self.x[:k], self.y[:k]))


@dataclass
class BoxSeries:
    """One labeled box of a box-plot figure."""

    label: str
    box: BoxplotStats


@dataclass
class FigureData:
    """All data behind one figure of the paper."""

    figure_id: str
    title: str
    xlabel: str = ""
    ylabel: str = ""
    series: list[Series] = field(default_factory=list)
    boxes: list[BoxSeries] = field(default_factory=list)
    annotations: list[str] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)

    def render(self, max_points: int = 6) -> str:
        """Aligned plain-text rendering of the figure data."""
        lines = [f"{self.figure_id}: {self.title}",
                 "=" * (len(self.figure_id) + len(self.title) + 2)]
        if self.xlabel or self.ylabel:
            lines.append(f"x: {self.xlabel} | y: {self.ylabel}")
        for annotation in self.annotations:
            lines.append(f"  {annotation}")
        for box in self.boxes:
            b = box.box
            lines.append(
                f"  [box] {box.label:18s} n={b.n:<5d} "
                f"min={_fmt(b.minimum)} q1={_fmt(b.q1)} "
                f"med={_fmt(b.median)} q3={_fmt(b.q3)} "
                f"max={_fmt(b.maximum)}")
        for series in self.series:
            suffix = f"  {series.annotation}" if series.annotation else ""
            lines.append(
                f"  [series] {series.name:18s} n={len(series.x)}{suffix}")
            points = ", ".join(
                f"({_fmt(x)}, {_fmt(y)})"
                for x, y in series.head(max_points))
            if points:
                lines.append(f"      {points}"
                             + (" ..." if len(series.x) > max_points
                                else ""))
        for note in self.notes:
            lines.append(f"  note: {note}")
        return "\n".join(lines)

    def __str__(self) -> str:  # pragma: no cover - delegation
        return self.render()


def _fmt(value: Any) -> str:
    if isinstance(value, float):
        if value == 0:
            return "0"
        if abs(value) >= 1000:
            return f"{value:.4g}"
        if abs(value) < 0.01:
            return f"{value:.2e}"
        return f"{value:.3g}"
    return str(value)
