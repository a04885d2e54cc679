"""Plain-text table rendering."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any


def _format_cell(value: Any) -> str:
    if value is None:
        return "-"
    if isinstance(value, float):
        if value == 0:
            return "0"
        if abs(value) >= 1000:
            return f"{value:,.1f}"
        if abs(value) < 0.01:
            return f"{value:.3e}"
        return f"{value:.4g}"
    return str(value)


@dataclass
class Table:
    """A titled table with aligned plain-text rendering."""

    title: str
    columns: list[str]
    rows: list[list[Any]] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)

    def add_row(self, *values: Any) -> None:
        """Append one row (must match the column count)."""
        if len(values) != len(self.columns):
            raise ValueError(
                f"row has {len(values)} cells, table has "
                f"{len(self.columns)} columns")
        self.rows.append(list(values))

    def row_for(self, key: Any) -> list[Any] | None:
        """The first row whose first cell equals ``key``."""
        for row in self.rows:
            if row[0] == key:
                return row
        return None

    def render(self) -> str:
        """Aligned plain-text rendering."""
        cells = [[_format_cell(v) for v in row] for row in self.rows]
        widths = [len(c) for c in self.columns]
        for row in cells:
            for i, cell in enumerate(row):
                widths[i] = max(widths[i], len(cell))
        lines = [self.title, "=" * len(self.title)]
        header = "  ".join(
            name.ljust(widths[i]) for i, name in enumerate(self.columns))
        lines.append(header)
        lines.append("-" * len(header))
        for row in cells:
            lines.append("  ".join(
                cell.ljust(widths[i]) for i, cell in enumerate(row)))
        for note in self.notes:
            lines.append(f"  note: {note}")
        return "\n".join(lines)

    def __str__(self) -> str:  # pragma: no cover - delegation
        return self.render()
