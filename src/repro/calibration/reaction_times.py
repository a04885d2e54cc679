"""Driver reaction-time distribution parameters (Figs. 10 and 11).

The paper observes a mean reaction time of ~0.85 s across all test
drivers, long-tailed distributions well fit by an exponentiated Weibull,
and manufacturer-specific spreads: Waymo's reaction times concentrate
below ~4 s, Mercedes-Benz's tail stretches past 20 s, and Volkswagen
reported one implausible ~4-hour outlier.  Reaction time correlates
weakly but positively with cumulative miles driven (Waymo r=0.19,
Mercedes-Benz r=0.11): drivers relax as the system improves.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import CalibrationError

#: Mean reaction time across all manufacturers (seconds), paper Sec V-A4.
OVERALL_MEAN_REACTION_TIME_S = 0.85

#: Braking reaction time for drivers of conventional vehicles [35].
NON_AV_BRAKING_REACTION_TIME_S = 0.82

#: Added reaction time when the driver owns the vehicle [35].
OWNERSHIP_REACTION_TIME_PENALTY_S = 0.27

#: The paper's assumed average human response time on the road.
ASSUMED_HUMAN_REACTION_TIME_S = 1.09


@dataclass(frozen=True)
class ReactionTimeModel:
    """Exponentiated-Weibull reaction-time model for one manufacturer.

    The density is that of :func:`scipy.stats.exponweib` with shape
    parameters ``a`` (exponentiation) and ``c`` (Weibull shape) and the
    given ``scale`` (seconds).  ``drift_per_log_mile`` adds a slow
    upward trend in log-cumulative-miles, reproducing the positive
    correlation between reaction time and miles driven.
    ``outlier_seconds`` optionally injects a single extreme value
    (Volkswagen's ~4-hour report).
    """

    manufacturer: str
    a: float
    c: float
    scale: float
    drift_per_log_mile: float = 0.0
    #: Log10-miles value at which the drift contributes zero, so the
    #: drift tilts the distribution without shifting its mean.
    drift_reference_log_miles: float = 0.0
    outlier_seconds: float | None = None

    def __post_init__(self) -> None:
        if min(self.a, self.c, self.scale) <= 0:
            raise CalibrationError(
                f"reaction-time model for {self.manufacturer} has "
                "non-positive shape/scale")


#: Only some manufacturers report reaction times (Fig. 10 shows Nissan,
#: Tesla, Delphi, Mercedes-Benz, Volkswagen, and Waymo).  Scales are
#: tuned so pooled means land near the paper's 0.85 s with the reported
#: per-manufacturer spreads.
REACTION_TIME_MODELS: dict[str, ReactionTimeModel] = {
    "Nissan": ReactionTimeModel("Nissan", a=1.2, c=1.4, scale=0.62),
    "Tesla": ReactionTimeModel("Tesla", a=1.1, c=1.3, scale=0.50),
    "Delphi": ReactionTimeModel("Delphi", a=1.3, c=1.2, scale=0.62),
    "Mercedes-Benz": ReactionTimeModel(
        "Mercedes-Benz", a=1.1, c=0.85, scale=0.90,
        drift_per_log_mile=0.30, drift_reference_log_miles=2.9),
    "Volkswagen": ReactionTimeModel(
        "Volkswagen", a=1.2, c=1.1, scale=0.60,
        outlier_seconds=14280.0),
    "Waymo": ReactionTimeModel(
        "Waymo", a=1.4, c=1.6, scale=0.55,
        drift_per_log_mile=0.18, drift_reference_log_miles=5.1),
}


def reaction_time_model(manufacturer: str) -> ReactionTimeModel | None:
    """Return the reaction-time model, or ``None`` if not reported."""
    return REACTION_TIME_MODELS.get(manufacturer)
