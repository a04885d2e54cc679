"""Accidents per mile: Question 5, Tables VI-VII, Fig. 12.

Because the DMV redacts vehicle identification in some accident
reports, the paper derives APM indirectly: APM = DPM / DPA, where DPA
(disengagements per accident) comes from the report counts.  The
first-principles APM (accidents / miles) is also computed for the
correlation check.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..calibration.baselines import HUMAN_ACCIDENTS_PER_MILE
from ..errors import InsufficientDataError
from ..pipeline.store import FailureDatabase
from .correlation import CorrelationResult, pearson
from .dpm import manufacturer_dpm_summary
from .fitting import ExponentialFit, fit_exponential
from .stats import mean


@dataclass(frozen=True)
class AccidentSummary:
    """One Table VI row."""

    manufacturer: str
    accidents: int
    fraction_of_total: float
    #: Disengagements per accident (None when no disengagement data).
    dpa: float | None


@dataclass(frozen=True)
class ApmSummary:
    """One Table VII row."""

    manufacturer: str
    median_dpm: float
    #: APM = median DPM / DPA (None without accidents).
    apm: float | None
    #: APM relative to the human baseline (None without accidents).
    relative_to_human: float | None


def accident_summary(db: FailureDatabase) -> dict[str, AccidentSummary]:
    """Table VI: accident counts, shares, and DPA per manufacturer."""
    by_manufacturer = db.accidents_by_manufacturer()
    total = sum(len(records) for records in by_manufacturer.values())
    if total == 0:
        raise InsufficientDataError("no accidents in the database")
    disengagements = db.disengagements_by_manufacturer()
    out: dict[str, AccidentSummary] = {}
    for name, records in sorted(by_manufacturer.items()):
        n_disengagements = len(disengagements.get(name, []))
        out[name] = AccidentSummary(
            manufacturer=name,
            accidents=len(records),
            fraction_of_total=100.0 * len(records) / total,
            dpa=(n_disengagements / len(records)
                 if n_disengagements else None),
        )
    return out


def apm_summary(db: FailureDatabase,
                manufacturers: list[str] | None = None,
                ) -> dict[str, ApmSummary]:
    """Table VII: median DPM, APM = DPM/DPA, and ratio to human APM."""
    dpm = manufacturer_dpm_summary(db, manufacturers)
    accidents = accident_summary(db)
    out: dict[str, ApmSummary] = {}
    for name, summary in dpm.items():
        accident = accidents.get(name)
        apm = None
        relative = None
        if accident is not None and accident.dpa:
            apm = summary.median_dpm / accident.dpa
            relative = apm / HUMAN_ACCIDENTS_PER_MILE
        out[name] = ApmSummary(
            manufacturer=name,
            median_dpm=summary.median_dpm,
            apm=apm,
            relative_to_human=relative,
        )
    return out


def first_principles_apm(db: FailureDatabase) -> dict[str, float]:
    """APM computed directly as accidents / miles, where attributable."""
    miles = db.miles_by_manufacturer()
    out = {}
    for name, records in db.accidents_by_manufacturer().items():
        total_miles = miles.get(name, 0.0)
        if total_miles > 0:
            out[name] = len(records) / total_miles
    return out


def apm_miles_correlation(db: FailureDatabase) -> CorrelationResult:
    """Correlation between accident counts and miles driven across
    manufacturers (the paper reports r = 0.98 at p < 0.01)."""
    miles = db.miles_by_manufacturer()
    xs, ys = [], []
    for name, records in db.accidents_by_manufacturer().items():
        total_miles = miles.get(name, 0.0)
        if total_miles > 0:
            xs.append(total_miles)
            ys.append(float(len(records)))
    return pearson(xs, ys)


@dataclass(frozen=True)
class SpeedDistributions:
    """Fig. 12: collision-speed samples and their exponential fits."""

    av_speeds: list[float]
    other_speeds: list[float]
    relative_speeds: list[float]
    av_fit: ExponentialFit
    other_fit: ExponentialFit
    relative_fit: ExponentialFit

    def fraction_relative_below(self, mph: float) -> float:
        """Empirical fraction of accidents below a relative speed."""
        if not self.relative_speeds:
            return 0.0
        below = sum(1 for s in self.relative_speeds if s < mph)
        return below / len(self.relative_speeds)


def collision_speed_distributions(db: FailureDatabase,
                                  ) -> SpeedDistributions:
    """Build Fig. 12's three distributions from the accident records."""
    av = [a.av_speed_mph for a in db.accidents
          if a.av_speed_mph is not None]
    other = [a.other_speed_mph for a in db.accidents
             if a.other_speed_mph is not None]
    relative = [a.relative_speed_mph for a in db.accidents
                if a.relative_speed_mph is not None]
    if not av or not other or not relative:
        raise InsufficientDataError("accident records lack speeds")
    return SpeedDistributions(
        av_speeds=av,
        other_speeds=other,
        relative_speeds=relative,
        av_fit=fit_exponential(av),
        other_fit=fit_exponential(other),
        relative_fit=fit_exponential(relative),
    )


def miles_per_disengagement(db: FailureDatabase) -> float:
    """Average autonomous miles per disengagement, aggregated per
    manufacturer then averaged (the paper's 262-mile figure)."""
    values = []
    for name, records in db.disengagements_by_manufacturer().items():
        miles = db.miles_by_manufacturer().get(name, 0.0)
        if miles > 0 and records:
            values.append(miles / len(records))
    if not values:
        raise InsufficientDataError("no manufacturers with mileage data")
    return mean(values)


def disengagements_per_accident_overall(db: FailureDatabase) -> float:
    """Total disengagements over total accidents (the ~127 figure)."""
    n_accidents = len(db.accidents)
    if n_accidents == 0:
        raise InsufficientDataError("no accidents in the database")
    return len(db.disengagements) / n_accidents
