"""Monthly autonomous-mileage plans.

Distributes each manufacturer's per-period Table I mileage total across
the period's months and the fleet's vehicles.  The monthly profile
grows geometrically (fleets ramp up over time) with multiplicative
noise; the per-vehicle split within a month is Dirichlet, so some
prototypes drive much more than others — matching the per-car DPM
spread the paper reports (Fig. 4).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..calibration.manufacturers import (
    PERIODS,
    ReportPeriod,
    get_manufacturer,
)
from ..calibration.trends import dpm_trend
from ..parsing.records import MonthlyMileage
from ..units import months_between
from .fleet import FleetRoster


@dataclass
class MonthlyPlan:
    """Per-(vehicle, month) mileage allocation for one manufacturer."""

    manufacturer: str
    #: Flat list of mileage cells; a vehicle absent in a month has none.
    cells: list[MonthlyMileage] = field(default_factory=list)

    def months(self) -> list[str]:
        """Sorted distinct months with any driving."""
        return sorted({cell.month for cell in self.cells})

    def miles_by_month(self) -> dict[str, float]:
        """Month -> total miles."""
        totals: dict[str, float] = {}
        for cell in self.cells:
            totals[cell.month] = totals.get(cell.month, 0.0) + cell.miles
        return dict(sorted(totals.items()))

    def cumulative_miles(self) -> dict[str, float]:
        """Month -> cumulative manufacturer miles through that month."""
        running = 0.0
        out: dict[str, float] = {}
        for month, miles in self.miles_by_month().items():
            running += miles
            out[month] = running
        return out

    @property
    def total_miles(self) -> float:
        """Total miles across the whole plan."""
        return sum(c.miles for c in self.cells)


def _period_months(period: ReportPeriod) -> list[str]:
    start, end = PERIODS[period]
    return months_between(start, end)


def _monthly_weights(n_months: int, growth: float,
                     rng: np.random.Generator) -> np.ndarray:
    """Geometric-growth monthly weights with multiplicative noise."""
    base = growth ** np.arange(n_months)
    noise = rng.lognormal(mean=0.0, sigma=0.15, size=n_months)
    weights = base * noise
    return weights / weights.sum()


def build_monthly_plan(manufacturer_name: str, roster: FleetRoster,
                       rng: np.random.Generator) -> MonthlyPlan:
    """Allocate Table I mileage across months and vehicles."""
    manufacturer = get_manufacturer(manufacturer_name)
    trend = dpm_trend(manufacturer_name)
    plan = MonthlyPlan(manufacturer=manufacturer_name)
    for period in ReportPeriod:
        stats = manufacturer.stats(period)
        total = stats.miles or 0.0
        vehicles = roster.vehicles(period)
        if total <= 0 or not vehicles:
            continue
        months = _period_months(period)
        month_weights = _monthly_weights(
            len(months), trend.mileage_growth, rng)
        #: Per-vehicle propensity: some prototypes drive far more.
        propensity = rng.dirichlet(np.full(len(vehicles), 2.0))
        for month, weight in zip(months, month_weights):
            month_total = total * weight
            #: Jitter the within-month split around the propensities.
            split = propensity * rng.lognormal(0.0, 0.2, len(vehicles))
            split = split / split.sum()
            for vehicle, share in zip(vehicles, split):
                miles = month_total * share
                if miles <= 0:
                    continue
                plan.cells.append(MonthlyMileage(
                    manufacturer=manufacturer_name,
                    month=month,
                    miles=float(miles),
                    vehicle_id=vehicle.vehicle_id,
                ))
    return plan
