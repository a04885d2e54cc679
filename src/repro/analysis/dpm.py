"""Disengagements per mile (DPM): Questions 1 and 3, Figs. 4, 7.

The paper's unit of analysis is the *car* where the manufacturer
attributes events to vehicles, and the *month* otherwise (GM Cruise,
Tesla, and Volkswagen never identify vehicles in their rows).  Both
units produce a distribution of DPM values per manufacturer whose
quartiles the box plots show.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass

from ..pipeline.store import FailureDatabase
from .stats import BoxplotStats, boxplot_stats, left_sum


@dataclass(frozen=True)
class MonthlyPoint:
    """One (manufacturer, month) observation."""

    month: str
    miles: float
    disengagements: int
    cumulative_miles: float

    @property
    def dpm(self) -> float:
        """Disengagements per mile in this month."""
        return self.disengagements / self.miles if self.miles > 0 else 0.0

    @property
    def year(self) -> int:
        """Calendar year."""
        return int(self.month[:4])


@dataclass(frozen=True)
class DpmSummary:
    """Per-manufacturer DPM distribution summary (one Fig. 4 box)."""

    manufacturer: str
    #: "car" or "month": the unit the distribution is over.
    unit: str
    box: BoxplotStats
    #: Total disengagements / total miles.
    aggregate_dpm: float

    @property
    def median_dpm(self) -> float:
        """Median per-unit DPM (the Table VII column)."""
        return self.box.median


def monthly_series(db: FailureDatabase,
                   manufacturer: str) -> list[MonthlyPoint]:
    """Month-by-month miles/disengagements/cumulative series."""
    miles = db.monthly_miles(manufacturer)
    events = db.monthly_disengagements(manufacturer)
    months = sorted(set(miles) | set(events))
    series: list[MonthlyPoint] = []
    cumulative = 0.0
    for month in months:
        month_miles = miles.get(month, 0.0)
        cumulative += month_miles
        series.append(MonthlyPoint(
            month=month,
            miles=month_miles,
            disengagements=events.get(month, 0),
            cumulative_miles=cumulative,
        ))
    return series


def has_vehicle_attribution(db: FailureDatabase,
                            manufacturer: str) -> bool:
    """Whether events are attributable to individual vehicles."""
    attributed, total = db.vehicle_attribution_counts(manufacturer)
    if not total:
        return False
    return attributed / total > 0.9


def per_unit_dpm(db: FailureDatabase,
                 manufacturer: str) -> tuple[str, dict[str, float]]:
    """Per-car DPM when attributable, per-month DPM otherwise.

    Returns ``(unit, {unit_key: dpm})``.  Units with zero recorded
    miles are skipped (no rate is defined for them).
    """
    if has_vehicle_attribution(db, manufacturer):
        miles = db.vehicle_miles(manufacturer)
        events = db.vehicle_disengagements(manufacturer)
        dpm = {vehicle: events.get(vehicle, 0) / vehicle_miles
               for vehicle, vehicle_miles in miles.items()
               if vehicle_miles > 0}
        if dpm:
            return "car", dpm
    series = monthly_series(db, manufacturer)
    return "month", {
        point.month: point.dpm for point in series if point.miles > 0}


def manufacturer_dpm_summary(db: FailureDatabase,
                             manufacturers: list[str] | None = None,
                             ) -> dict[str, DpmSummary]:
    """Fig. 4 / Table VII column: per-manufacturer DPM summaries."""
    names = manufacturers if manufacturers is not None \
        else db.manufacturers()
    out: dict[str, DpmSummary] = {}
    for name in names:
        unit, dpm = per_unit_dpm(db, name)
        if not dpm:
            continue
        total_miles = left_sum(db.monthly_miles(name).values())
        total_events = sum(db.monthly_disengagements(name).values())
        out[name] = DpmSummary(
            manufacturer=name,
            unit=unit,
            box=boxplot_stats(list(dpm.values())),
            aggregate_dpm=(total_events / total_miles
                           if total_miles > 0 else 0.0),
        )
    return out


def yearly_dpm_distributions(db: FailureDatabase,
                             manufacturers: list[str] | None = None,
                             ) -> dict[str, dict[int, list[float]]]:
    """Fig. 7: per-(unit, year) DPM distributions per manufacturer."""
    names = manufacturers if manufacturers is not None \
        else db.manufacturers()
    out: dict[str, dict[int, list[float]]] = {}
    for name in names:
        per_year: dict[int, list[float]] = defaultdict(list)
        if has_vehicle_attribution(db, name):
            # Per (car, year): miles and events split by year.
            miles = db.vehicle_year_miles(name)
            events = db.vehicle_year_disengagements(name)
            for (vehicle, year), vehicle_miles in miles.items():
                if vehicle_miles > 0:
                    per_year[year].append(
                        events.get((vehicle, year), 0) / vehicle_miles)
        else:
            for point in monthly_series(db, name):
                if point.miles > 0:
                    per_year[point.year].append(point.dpm)
        if per_year:
            out[name] = dict(sorted(per_year.items()))
    return out

