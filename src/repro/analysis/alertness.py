"""Driver alertness: Question 4, Figs. 10-11.

Reaction-time distributions per manufacturer, the exponentiated-
Weibull fits of Fig. 11, the comparison against non-AV braking
reaction times, and the correlation between reaction time and
cumulative miles driven (alertness decays as the system improves).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..calibration.reaction_times import (
    ASSUMED_HUMAN_REACTION_TIME_S,
    NON_AV_BRAKING_REACTION_TIME_S,
)
from ..errors import InsufficientDataError
from ..pipeline.store import FailureDatabase
from .correlation import CorrelationResult, pearson
from .dpm import monthly_series
from .fitting import ExponWeibullFit, fit_exponweibull
from .stats import BoxplotStats, boxplot_stats, left_sum

#: Reaction times above this are excluded from fits and means (the
#: paper suspects Volkswagen's ~4 h record is a measurement error).
OUTLIER_THRESHOLD_S = 600.0


@dataclass(frozen=True)
class AlertnessSummary:
    """Reaction-time summary for one manufacturer (one Fig. 10 box)."""

    manufacturer: str
    box: BoxplotStats
    #: Mean with implausible outliers excluded.
    trimmed_mean: float
    #: Count of excluded outliers.
    outliers: int


def alertness_summary(db: FailureDatabase) -> dict[str, AlertnessSummary]:
    """Fig. 10: per-manufacturer reaction-time summaries."""
    out: dict[str, AlertnessSummary] = {}
    for name in db.manufacturers():
        times = db.reaction_times(name)
        if not times:
            continue
        trimmed = [t for t in times if t <= OUTLIER_THRESHOLD_S]
        out[name] = AlertnessSummary(
            manufacturer=name,
            box=boxplot_stats(times),
            trimmed_mean=(left_sum(trimmed) / len(trimmed)
                          if trimmed else float("nan")),
            outliers=len(times) - len(trimmed),
        )
    return out


def overall_mean_reaction_time(db: FailureDatabase) -> float:
    """Mean reaction time across all manufacturers (outliers trimmed).

    The paper reports ~0.85 s.
    """
    times = [t for t in db.reaction_times()
             if t <= OUTLIER_THRESHOLD_S]
    if not times:
        raise InsufficientDataError("no reaction times in the database")
    return left_sum(times) / len(times)


def fit_reaction_times(db: FailureDatabase, manufacturer: str,
                       ) -> ExponWeibullFit:
    """Fig. 11: exponentiated-Weibull fit of one manufacturer's
    reaction times (outliers excluded, as the paper does for VW)."""
    times = db.reaction_times(manufacturer)
    return fit_exponweibull(times, trim_above=OUTLIER_THRESHOLD_S)


def reaction_time_mileage_correlation(db: FailureDatabase,
                                      manufacturer: str,
                                      ) -> CorrelationResult:
    """Correlation between cumulative miles and reaction times.

    Each disengagement with a reaction time contributes one point:
    (cumulative manufacturer miles through its month, reaction time).
    The paper reports r = 0.19 (Waymo) and 0.11 (Mercedes-Benz),
    positive at 99% confidence: alertness decays as DPM improves.
    """
    cumulative = {point.month: point.cumulative_miles
                  for point in monthly_series(db, manufacturer)}
    xs, ys = [], []
    for record in db.disengagements:
        if (record.manufacturer != manufacturer
                or record.reaction_time_s is None
                or record.reaction_time_s > OUTLIER_THRESHOLD_S):
            continue
        miles = cumulative.get(record.month)
        if miles and miles > 0:
            xs.append(miles)
            ys.append(record.reaction_time_s)
    return pearson(xs, ys)


def action_window(detection_time_s: float,
                  reaction_time_s: float) -> float:
    """The end-to-end action window: fault detection plus driver
    reaction (the paper argues its small size makes reaction-time
    accidents a frequent failure mode)."""
    if detection_time_s < 0 or reaction_time_s < 0:
        raise InsufficientDataError("times must be non-negative")
    return detection_time_s + reaction_time_s


def human_baseline() -> dict[str, float]:
    """Published human reaction-time baselines used for comparison."""
    return {
        "non_av_braking_s": NON_AV_BRAKING_REACTION_TIME_S,
        "assumed_human_s": ASSUMED_HUMAN_REACTION_TIME_S,
    }
