"""Per-mission comparison with other safety-critical systems
(Table VIII, Sec. V-C1).

A *mission* is one continuous operation: a trip for a vehicle, a
departure for an airplane, a procedure for a surgical robot.  The AV's
accidents-per-mission (APMi) is its per-mile rate scaled by the median
U.S. trip length.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..calibration.baselines import (
    AIRLINE_ACCIDENTS_PER_MISSION,
    MEDIAN_TRIP_MILES,
    SURGICAL_ROBOT_ACCIDENTS_PER_MISSION,
)
from ..errors import InsufficientDataError
from ..pipeline.store import FailureDatabase
from .apm import apm_summary


@dataclass(frozen=True)
class MissionComparison:
    """One Table VIII row."""

    manufacturer: str
    apmi: float
    vs_airline: float
    vs_surgical_robot: float


def accidents_per_mission(apm: float) -> float:
    """APMi = APM x median trip length."""
    if apm < 0:
        raise InsufficientDataError("APM must be non-negative")
    return apm * MEDIAN_TRIP_MILES


def mission_comparison(db: FailureDatabase,
                       manufacturers: list[str] | None = None,
                       ) -> dict[str, MissionComparison]:
    """Table VIII for every manufacturer with a computable APM."""
    out: dict[str, MissionComparison] = {}
    for name, summary in apm_summary(db, manufacturers).items():
        if summary.apm is None:
            continue
        apmi = accidents_per_mission(summary.apm)
        out[name] = MissionComparison(
            manufacturer=name,
            apmi=apmi,
            vs_airline=apmi / AIRLINE_ACCIDENTS_PER_MISSION,
            vs_surgical_robot=apmi / SURGICAL_ROBOT_ACCIDENTS_PER_MISSION,
        )
    return out
