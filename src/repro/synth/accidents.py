"""Accident (OL-316) report synthesis.

Each manufacturer's Table I accident counts are realized as dated
accident records with collision speeds drawn from the calibrated
exponential models (Fig. 12), urban-intersection locations, collision
types, and narrative descriptions in the style of the two case studies.
The DMV redacted vehicle identification in part of the real corpus;
we reproduce that with a configurable redaction probability.
"""

from __future__ import annotations

import calendar
from datetime import date

import numpy as np

from ..calibration.accidents import (
    COLLISION_TYPE_WEIGHTS,
    COLLISION_TYPES,
    INTERSECTION_STREETS,
    SPEED_MODEL,
)
from ..calibration.manufacturers import (
    PERIODS,
    ReportPeriod,
    get_manufacturer,
)
from ..parsing.records import AccidentRecord
from ..rng import cdf_index, weighted_cdf
from ..units import month_key
from .fleet import FleetRoster

#: Probability that the DMV redacts vehicle identification.
REDACTION_PROBABILITY = 0.4

#: Probability that the driver disengaged before the collision (an
#: artifact of safety-driver training the paper calls out).
PRE_COLLISION_DISENGAGE_PROBABILITY = 0.45

_NARRATIVES_BY_TYPE: dict[str, tuple[str, ...]] = {
    "rear-end": (
        "The AV was in autonomous mode, decelerating to yield, when a "
        "vehicle approaching from behind collided with the rear of "
        "the AV.",
        "While stopped at the intersection the AV was struck from "
        "behind by a manual vehicle whose driver misjudged the AV's "
        "movement.",
        "The AV came to a stop for a pedestrian; the following vehicle "
        "did not stop in time and made contact with the AV's rear "
        "bumper.",
    ),
    "side-swipe": (
        "A vehicle changing lanes made contact with the side of the AV "
        "while the AV was proceeding straight in its lane.",
        "The AV was side-swiped by a bus passing on the left as the AV "
        "hugged the right side of the lane.",
        "During a lane change by the other vehicle, its mirror "
        "contacted the AV's front quarter panel.",
    ),
    "broadside": (
        "A vehicle ran the red light and struck the AV broadside while "
        "the AV was crossing the intersection.",
        "The AV was struck on the passenger side by a vehicle that "
        "failed to yield at the intersection.",
    ),
    "object": (
        "The AV made contact with a stationary object at low speed "
        "while maneuvering in a parking area.",
        "The AV contacted a traffic cone that had fallen into the "
        "travel lane.",
    ),
}


def _truncated_exponential(scale: float, upper: float,
                           rng: np.random.Generator) -> float:
    """Sample Exp(scale) truncated to [0, upper]."""
    while True:
        value = rng.exponential(scale)
        if value <= upper:
            return value


def _sample_location(rng: np.random.Generator) -> str:
    streets = rng.choice(
        len(INTERSECTION_STREETS), size=2, replace=False)
    first = INTERSECTION_STREETS[int(streets[0])]
    second = INTERSECTION_STREETS[int(streets[1])]
    return f"{first} and {second}, Mountain View, CA"


def _sample_date(period: ReportPeriod, rng: np.random.Generator) -> date:
    start, end = PERIODS[period]
    months = ((end.year - start.year) * 12 + end.month - start.month) + 1
    offset = int(rng.integers(0, months))
    year = start.year + (start.month - 1 + offset) // 12
    month = (start.month - 1 + offset) % 12 + 1
    last = calendar.monthrange(year, month)[1]
    return date(year, month, int(rng.integers(1, last + 1)))


#: :func:`~repro.rng.cdf_index` table of the collision-type weights.
_COLLISION_TYPE_CDF = weighted_cdf(COLLISION_TYPE_WEIGHTS)


def synthesize_accidents(manufacturer_name: str, roster: FleetRoster,
                         rng: np.random.Generator) -> list[AccidentRecord]:
    """Synthesize all accident records for one manufacturer."""
    manufacturer = get_manufacturer(manufacturer_name)
    records: list[AccidentRecord] = []
    for period in ReportPeriod:
        count = manufacturer.stats(period).accidents or 0
        vehicles = roster.vehicles(period)
        for _ in range(count):
            collision_type = COLLISION_TYPES[
                cdf_index(_COLLISION_TYPE_CDF, rng)]
            av_speed = _truncated_exponential(
                SPEED_MODEL.av_scale, SPEED_MODEL.max_av_speed, rng)
            if collision_type == "object":
                other_speed = 0.0
            else:
                relative = _truncated_exponential(
                    SPEED_MODEL.relative_scale, SPEED_MODEL.max_mv_speed,
                    rng)
                direction = 1.0 if rng.random() < 0.7 else -1.0
                # ``np.clip(sum, 0.0, max)``: the sum is never NaN or -0.0.
                other_speed = min(max(av_speed + direction * relative,
                                      0.0), SPEED_MODEL.max_mv_speed)
            narratives = _NARRATIVES_BY_TYPE[collision_type]
            redacted = bool(rng.random() < REDACTION_PROBABILITY)
            vehicle_id = None
            if vehicles and not redacted:
                vehicle_id = vehicles[
                    int(rng.integers(len(vehicles)))].vehicle_id
            event_date = _sample_date(period, rng)
            records.append(AccidentRecord(
                manufacturer=manufacturer_name,
                event_date=event_date,
                month=month_key(event_date),
                location=_sample_location(rng),
                autonomous_at_collision=bool(rng.random() < 0.7),
                disengaged_before_collision=bool(
                    rng.random() < PRE_COLLISION_DISENGAGE_PROBABILITY),
                av_speed_mph=round(float(av_speed), 1),
                other_speed_mph=round(float(other_speed), 1),
                collision_type=collision_type,
                injuries=False,
                redacted=redacted,
                vehicle_id=vehicle_id,
                description=narratives[int(rng.integers(len(narratives)))],
            ))
    records.sort(key=lambda r: r.event_date or date.min)
    return records
