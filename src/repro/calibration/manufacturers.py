"""Fleet sizes, miles, and incident counts per manufacturer (Table I).

The CA DMV collects disengagement data in annual reporting periods; the
paper analyzes the 2016 release (covering roughly September 2014 through
November 2015) and the 2017 release (December 2015 through November
2016).  Table I reports, per manufacturer and period: number of cars,
autonomous miles, disengagements, and accidents.  Dashes in the paper
(absent data) are represented as ``None``.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from datetime import date

from ..errors import CalibrationError


class ReportPeriod(enum.Enum):
    """The two DMV reporting periods covered by the study."""

    P2015_2016 = "2015-2016"
    P2016_2017 = "2016-2017"

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.value


#: Calendar coverage of each reporting period (inclusive month range).
PERIODS: dict[ReportPeriod, tuple[date, date]] = {
    ReportPeriod.P2015_2016: (date(2014, 9, 1), date(2015, 11, 30)),
    ReportPeriod.P2016_2017: (date(2015, 12, 1), date(2016, 11, 30)),
}


@dataclass(frozen=True)
class PeriodStats:
    """One manufacturer's Table I row for one reporting period.

    ``None`` reproduces the dashes in Table I: data the manufacturer did
    not report.  A manufacturer that did not test at all in a period has
    all four fields ``None``.
    """

    cars: int | None
    miles: float | None
    disengagements: int | None
    accidents: int | None

    @property
    def tested(self) -> bool:
        """Whether the manufacturer reported any activity this period."""
        return self.miles is not None and self.miles > 0


@dataclass(frozen=True)
class Manufacturer:
    """Static, paper-derived description of one AV manufacturer."""

    name: str
    periods: dict[ReportPeriod, PeriodStats]
    #: Whether the manufacturer reports per-event timestamps (some report
    #: month-granularity only, like Waymo's "May-16" entries).
    day_granularity: bool
    #: Whether the manufacturer reports driver reaction times.
    reports_reaction_times: bool
    #: Whether the manufacturer reports weather / road-type detail.
    reports_conditions: bool
    #: Whether the manufacturer is part of the paper's statistical
    #: analysis (Uber/BMW/Ford/Honda are excluded: too few events).
    analyzed: bool

    def stats(self, period: ReportPeriod) -> PeriodStats:
        """Return this manufacturer's Table I row for ``period``."""
        return self.periods[period]

    @property
    def total_miles(self) -> float:
        """Total autonomous miles across both periods (missing = 0)."""
        return sum(s.miles or 0.0 for s in self.periods.values())

    @property
    def total_disengagements(self) -> int:
        """Total disengagements across both periods (missing = 0)."""
        return sum(s.disengagements or 0 for s in self.periods.values())

    @property
    def total_accidents(self) -> int:
        """Total accidents across both periods (missing = 0)."""
        return sum(s.accidents or 0 for s in self.periods.values())


def _mk(name: str,
        p1: tuple[int | None, float | None, int | None, int | None],
        p2: tuple[int | None, float | None, int | None, int | None],
        *, day_granularity: bool = True, reaction_times: bool = False,
        conditions: bool = False, analyzed: bool = True) -> Manufacturer:
    return Manufacturer(
        name=name,
        periods={
            ReportPeriod.P2015_2016: PeriodStats(*p1),
            ReportPeriod.P2016_2017: PeriodStats(*p2),
        },
        day_granularity=day_granularity,
        reports_reaction_times=reaction_times,
        reports_conditions=conditions,
        analyzed=analyzed,
    )


#: Table I, verbatim.  Tuples are (cars, miles, disengagements, accidents).
MANUFACTURERS: dict[str, Manufacturer] = {
    m.name: m for m in [
        _mk("Mercedes-Benz",
            (2, 1739.08, 1024, None), (None, 673.41, 336, None),
            reaction_times=True, conditions=True),
        _mk("Bosch",
            (2, 935.1, 625, None), (3, 983.0, 1442, None),
            conditions=True),
        _mk("Delphi",
            (2, 16661.0, 405, 1), (2, 3090.0, 167, None),
            reaction_times=True, conditions=True),
        _mk("GMCruise",
            (None, 285.4, 135, None), (None, 9729.8, 149, 14)),
        _mk("Nissan",
            (4, 1485.4, 106, None), (3, 4099.0, 29, 1),
            reaction_times=True, conditions=True),
        _mk("Tesla",
            (None, None, None, None), (5, 550.0, 182, None),
            reaction_times=True),
        _mk("Volkswagen",
            (2, 14946.11, 260, None), (None, None, None, None),
            reaction_times=True),
        _mk("Waymo",
            (49, 424332.0, 341, 9), (70, 635868.0, 123, 16),
            day_granularity=False, reaction_times=True, conditions=True),
        _mk("Uber ATC",
            (None, None, None, None), (None, None, None, 1),
            analyzed=False),
        _mk("Honda",
            (None, None, None, None), (0, 0.0, 0, None),
            analyzed=False),
        _mk("Ford",
            (None, None, None, None), (2, 590.0, 3, None),
            analyzed=False),
        _mk("BMW",
            (None, None, None, None), (None, 638.0, 1, None),
            analyzed=False),
    ]
}

#: The eight manufacturers included in the paper's statistical analysis.
ANALYSIS_MANUFACTURERS: tuple[str, ...] = tuple(
    name for name, m in MANUFACTURERS.items() if m.analyzed)

#: Manufacturers the paper excludes for having too few events.
EXCLUDED_MANUFACTURERS: tuple[str, ...] = tuple(
    name for name, m in MANUFACTURERS.items() if not m.analyzed)


def get_manufacturer(name: str) -> Manufacturer:
    """Look up a manufacturer by name, raising ``CalibrationError``."""
    try:
        return MANUFACTURERS[name]
    except KeyError:
        known = ", ".join(sorted(MANUFACTURERS))
        raise CalibrationError(
            f"unknown manufacturer {name!r}; known: {known}") from None


def total_miles() -> float:
    """Cumulative autonomous miles across all manufacturers/periods."""
    return sum(m.total_miles for m in MANUFACTURERS.values())


def total_disengagements() -> int:
    """Total disengagements across all manufacturers/periods."""
    return sum(m.total_disengagements for m in MANUFACTURERS.values())


def total_accidents() -> int:
    """Total accidents across all manufacturers/periods."""
    return sum(m.total_accidents for m in MANUFACTURERS.values())
