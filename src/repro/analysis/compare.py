"""Database-to-database comparison ("what changed since last year").

Diffs two failure databases — e.g. two report years, two corpus seeds,
or before/after a pipeline change — per manufacturer and overall, in
the metrics the paper tracks.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import InsufficientDataError
from ..pipeline.store import FailureDatabase
from .stats import left_sum


@dataclass(frozen=True)
class MetricDelta:
    """One metric's change between two databases."""

    metric: str
    before: float | None
    after: float | None

    @property
    def absolute(self) -> float | None:
        """after - before, None when either side is missing."""
        if self.before is None or self.after is None:
            return None
        return self.after - self.before

    @property
    def relative(self) -> float | None:
        """(after - before) / before, None when undefined."""
        if self.before in (None, 0) or self.after is None:
            return None
        return (self.after - self.before) / self.before

    @property
    def direction(self) -> str:
        """"up", "down", "flat", or "n/a"."""
        delta = self.absolute
        if delta is None:
            return "n/a"
        if abs(delta) < 1e-12:
            return "flat"
        return "up" if delta > 0 else "down"


@dataclass(frozen=True)
class ManufacturerDiff:
    """All tracked metric deltas for one manufacturer."""

    manufacturer: str
    deltas: tuple[MetricDelta, ...]

    def delta(self, metric: str) -> MetricDelta:
        """Look up one metric's delta."""
        for item in self.deltas:
            if item.metric == metric:
                return item
        raise InsufficientDataError(
            f"{self.manufacturer}: no metric {metric!r}")

    @property
    def improving(self) -> bool | None:
        """Whether aggregate DPM fell (the paper's notion of
        improvement); None without data on both sides."""
        delta = self.delta("dpm").absolute
        if delta is None:
            return None
        return delta < 0


def _manufacturer_metrics(db: FailureDatabase,
                          name: str) -> dict[str, float | None]:
    miles = db.miles_by_manufacturer().get(name, 0.0)
    records = db.disengagements_by_manufacturer().get(name, [])
    accidents = db.accidents_by_manufacturer().get(name, [])
    reaction_times = [t for t in db.reaction_times(name) if t < 600]
    return {
        "miles": miles or None,
        "disengagements": float(len(records)) if records else None,
        "accidents": float(len(accidents)) if accidents else None,
        "dpm": (len(records) / miles) if miles > 0 and records
        else None,
        "apm": (len(accidents) / miles) if miles > 0 and accidents
        else None,
        "mean_reaction_s": (left_sum(reaction_times)
                            / len(reaction_times))
        if reaction_times else None,
    }


def diff_databases(before: FailureDatabase, after: FailureDatabase,
                   manufacturers: list[str] | None = None,
                   ) -> dict[str, ManufacturerDiff]:
    """Per-manufacturer metric deltas between two databases."""
    names = manufacturers if manufacturers is not None else sorted(
        set(before.manufacturers()) | set(after.manufacturers()))
    out: dict[str, ManufacturerDiff] = {}
    for name in names:
        metrics_before = _manufacturer_metrics(before, name)
        metrics_after = _manufacturer_metrics(after, name)
        deltas = tuple(
            MetricDelta(metric=metric,
                        before=metrics_before[metric],
                        after=metrics_after[metric])
            for metric in metrics_before)
        out[name] = ManufacturerDiff(manufacturer=name, deltas=deltas)
    return out


def split_by_period(db: FailureDatabase,
                    ) -> tuple[FailureDatabase, FailureDatabase]:
    """Split one database into the two DMV reporting periods.

    Gives the natural before/after pair for
    :func:`diff_databases` — the year-over-year story the DMV
    releases tell.
    """
    from ..calibration.manufacturers import PERIODS, ReportPeriod
    from ..units import months_between

    first_months = set(months_between(
        *PERIODS[ReportPeriod.P2015_2016]))
    first = FailureDatabase()
    second = FailureDatabase()
    for record in db.disengagements:
        target = first if record.month in first_months else second
        target.disengagements.append(record)
    for accident in db.accidents:
        target = first if (accident.month in first_months) else second
        target.accidents.append(accident)
    for cell in db.mileage:
        target = first if cell.month in first_months else second
        target.mileage.append(cell)
    return first, second
