"""Accident calibration (Table VI and Fig. 12).

Table VI lists the per-manufacturer accident counts and the derived
disengagements-per-accident (DPA).  Fig. 12 shows that collision speeds
are exponentially distributed and low: more than 80% of accidents occur
at a relative speed below 10 mph, in the vicinity of intersections on
urban streets, mostly rear-end or side-swipe collisions.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import CalibrationError


@dataclass(frozen=True)
class AccidentProfile:
    """Table VI row: accident count and DPA for one manufacturer."""

    manufacturer: str
    accidents: int
    #: Disengagements per accident; ``None`` when the paper shows a dash
    #: (Uber ATC reported an accident but no disengagement data).
    dpa: float | None

    def __post_init__(self) -> None:
        if self.accidents < 0:
            raise CalibrationError(
                f"negative accident count for {self.manufacturer}")


#: Table VI, verbatim.
ACCIDENT_PROFILES: dict[str, AccidentProfile] = {
    "Waymo": AccidentProfile("Waymo", 25, 18.0),
    "Delphi": AccidentProfile("Delphi", 1, 572.0),
    "Nissan": AccidentProfile("Nissan", 1, 135.0),
    "GMCruise": AccidentProfile("GMCruise", 14, 20.0),
    "Uber ATC": AccidentProfile("Uber ATC", 1, None),
}


@dataclass(frozen=True)
class CollisionSpeedModel:
    """Exponential collision-speed model (Fig. 12), in mph.

    ``av_scale``, ``mv_scale``, and ``relative_scale`` are the means of
    the exponential distributions of the AV's speed, the manual
    vehicle's speed, and the absolute speed difference at collision.
    ``max_av_speed``/``max_mv_speed`` truncate at the figure's axis
    ranges (all reported accidents were low-speed).
    """

    av_scale: float = 4.5
    mv_scale: float = 9.0
    relative_scale: float = 5.0
    max_av_speed: float = 30.0
    max_mv_speed: float = 40.0


#: The single speed model used for all synthesized accidents.  With a
#: 5 mph mean relative speed, P(<10 mph) = 86%, matching the paper's
#: ">80% of accidents below 10 mph relative speed".
SPEED_MODEL = CollisionSpeedModel()

#: Collision types observed in the reports (most were rear-end or
#: side-swipe; none caused serious injuries).
COLLISION_TYPES: tuple[str, ...] = (
    "rear-end", "side-swipe", "broadside", "object")

#: Weights for sampling collision types, aligned with the paper's
#: "most of the accidents were minor (either rear-end or side-swipe)".
COLLISION_TYPE_WEIGHTS: tuple[float, ...] = (0.60, 0.28, 0.08, 0.04)

#: Streets in Mountain View, CA used for synthesized accident locations
#: (the case studies place accidents near intersections on urban roads).
INTERSECTION_STREETS: tuple[str, ...] = (
    "South Shoreline Blvd", "El Camino Real", "Castro St", "Rengstorff Ave",
    "Middlefield Rd", "California St", "Grant Rd", "Clark Ave",
    "Moffett Blvd", "Villa St", "Church St", "Highschool Way",
)
