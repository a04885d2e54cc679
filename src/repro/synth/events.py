"""Disengagement event synthesis.

For each manufacturer and reporting period, allocates the exact Table I
disengagement total across months with weights following the calibrated
DPM-vs-cumulative-miles trend, assigns each event to a vehicle in
proportion to that vehicle's monthly mileage, and populates every
canonical field: date/time, modality, ground-truth fault tag, cause
narrative, road type, weather, and driver reaction time.
"""

from __future__ import annotations

import calendar
from datetime import date

import numpy as np

from ..calibration.fault_model import fault_mixture
from ..calibration.manufacturers import ReportPeriod, get_manufacturer
from ..calibration.modality import modality_mixture
from ..calibration.reaction_times import (
    ReactionTimeModel,
    reaction_time_model,
)
from ..calibration.roads import (
    ROAD_TYPE_SHARES,
    WEATHER_CONDITIONS,
    WEATHER_WEIGHTS,
)
from ..calibration.trends import dpm_trend
from ..parsing.records import DisengagementRecord, MonthlyMileage
from ..rng import cdf_index, exponweib_variate, weighted_cdf
from .mileage import MonthlyPlan, _period_months
from .narratives import NarrativeGenerator


def _month_event_counts(total: int, months: list[str],
                        miles_by_month: dict[str, float],
                        cumulative: dict[str, float], slope: float,
                        sigma: float,
                        rng: np.random.Generator) -> dict[str, int]:
    """Multinomially allocate ``total`` events across ``months``.

    Weights are ``miles * cumulative_miles**slope`` with lognormal
    noise, so the realized monthly DPM follows the calibrated power-law
    trend while the period total matches Table I exactly.
    """
    active = [m for m in months if miles_by_month.get(m, 0.0) > 0]
    if not active or total <= 0:
        return {}
    weights = np.array([
        miles_by_month[m] * max(cumulative[m], 1.0) ** slope
        * rng.lognormal(0.0, sigma)
        for m in active])
    weights = weights / weights.sum()
    counts = rng.multinomial(total, weights)
    return {m: int(c) for m, c in zip(active, counts) if c > 0}


def _sample_time(rng: np.random.Generator) -> tuple[int, int, int]:
    """Random daytime-biased wall-clock time (testing is mostly diurnal).

    The hour is ``int(np.clip(rng.normal(13.0, 3.5), 0, 23))``; a
    normal draw is never NaN, so ``min``/``max`` clamp it the same.
    """
    hour = int(min(max(rng.normal(13.0, 3.5), 0), 23))
    return hour, int(rng.integers(0, 60)), int(rng.integers(0, 60))


def _reaction_drift(model: ReactionTimeModel | None,
                    cumulative_miles: float) -> float | None:
    """The reaction-time drift of a month, ``None`` if there is none.

    Added to each of the month's variates, which then round as
    :func:`_round_drifted` rounds.
    """
    if model is None or not model.drift_per_log_mile:
        return None
    return float(model.drift_per_log_mile * (
        np.log10(max(cumulative_miles, 1.0))
        - model.drift_reference_log_miles))


def _round_drifted(value: float) -> float:
    """``round(numpy.float64(value), 2)`` as a float, in numpy's closed
    form: scale by 100, round half to even, divide by 100.

    Drifted reaction times must round this way to keep the pinned
    corpus: Python's ``round(value, 2)`` rounds the decimal value
    instead, and differs on some inputs (``0.015``: 0.01, not 0.02).
    """
    return round(value * 100.0) / 100.0


def synthesize_disengagements(manufacturer_name: str, plan: MonthlyPlan,
                              rng: np.random.Generator,
                              ) -> list[DisengagementRecord]:
    """Synthesize all disengagement records for one manufacturer.

    Each event makes its generator calls in a fixed order: fault tag,
    modality, vehicle, day; the time of day where the manufacturer
    reports dates; road type and weather where it reports conditions;
    the reaction time where it reports them; then the narrative.
    Everything that depends only on the manufacturer or the month is
    computed before the month's events.
    """
    manufacturer = get_manufacturer(manufacturer_name)
    trend = dpm_trend(manufacturer_name)
    faults = fault_mixture(manufacturer_name)
    modalities = modality_mixture(manufacturer_name)
    reaction = reaction_time_model(manufacturer_name)
    day_granularity = manufacturer.day_granularity
    reports_conditions = manufacturer.reports_conditions
    narrative = NarrativeGenerator(rng).narrative

    fault_tags = list(faults.weights)
    fault_cdf = weighted_cdf([faults.weights[t] for t in fault_tags])
    modality_values = list(modalities.weights)
    modality_cdf = weighted_cdf(
        [modalities.weights[m] for m in modality_values])

    road_types = [str(r) for r in ROAD_TYPE_SHARES]
    road_cdf = weighted_cdf(list(ROAD_TYPE_SHARES.values()))
    weather_cdf = weighted_cdf(WEATHER_WEIGHTS)

    miles_by_month = plan.miles_by_month()
    cumulative = plan.cumulative_miles()
    cells_by_month: dict[str, list[MonthlyMileage]] = {}
    for cell in plan.cells:
        cells_by_month.setdefault(cell.month, []).append(cell)

    records: list[DisengagementRecord] = []
    for period in ReportPeriod:
        stats = manufacturer.stats(period)
        total = stats.disengagements or 0
        if total <= 0:
            continue
        months = _period_months(period)
        counts = _month_event_counts(
            total, months, miles_by_month, cumulative,
            trend.slope, trend.sigma, rng)
        for month, count in counts.items():
            vehicles = cells_by_month[month]
            vehicle_ids = [c.vehicle_id for c in vehicles]
            miles = np.array([c.miles for c in vehicles])
            vehicle_cdf = weighted_cdf(miles / miles.sum())
            year, mon = int(month[:4]), int(month[5:7])
            days = calendar.monthrange(year, mon)[1]
            drift = _reaction_drift(reaction, cumulative[month])
            for _ in range(count):
                tag = fault_tags[cdf_index(fault_cdf, rng)]
                modality = modality_values[cdf_index(modality_cdf, rng)]
                vehicle_id = vehicle_ids[cdf_index(vehicle_cdf, rng)]
                # Drawn whether the date is reported or not, so the
                # stream does not depend on the report format.
                day = rng.integers(1, days + 1)
                event_date = time_of_day = road_type = weather = None
                if day_granularity:
                    event_date = date(year, mon, int(day))
                    time_of_day = _sample_time(rng)
                if reports_conditions:
                    road_type = road_types[cdf_index(road_cdf, rng)]
                    weather = WEATHER_CONDITIONS[cdf_index(weather_cdf, rng)]
                reaction_time = None
                if reaction is not None:
                    value = exponweib_variate(
                        reaction.a, reaction.c, reaction.scale, rng)
                    value = (round(value, 2) if drift is None
                             else _round_drifted(value + drift))
                    reaction_time = max(value, 0.01)
                records.append(DisengagementRecord(
                    manufacturer=manufacturer_name,
                    month=month,
                    event_date=event_date,
                    time_of_day=time_of_day,
                    vehicle_id=vehicle_id,
                    modality=modality,
                    road_type=road_type,
                    weather=weather,
                    reaction_time_s=reaction_time,
                    description=narrative(tag, modality),
                    truth_tag=tag,
                ))

    _inject_reaction_outlier(manufacturer_name, records)
    records.sort(key=lambda r: (r.month, r.event_date or date(
        int(r.month[:4]), int(r.month[5:7]), 1)))
    return records


def _inject_reaction_outlier(manufacturer_name: str,
                             records: list[DisengagementRecord]) -> None:
    """Inject the calibrated extreme reaction time (VW's ~4 h report)."""
    model = reaction_time_model(manufacturer_name)
    if model is None or model.outlier_seconds is None or not records:
        return
    carrier = max(records, key=lambda r: r.reaction_time_s or 0.0)
    carrier.reaction_time_s = model.outlier_seconds


__all__ = ["synthesize_disengagements"]
