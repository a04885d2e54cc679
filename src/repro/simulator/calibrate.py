"""Calibrate the simulator against a manufacturer's field data.

Pulls the per-mile disengagement rate, the manual (proactive) share,
and the fitted reaction-time distribution from the failure database;
sets the conflict probability so the *expected* disengagements-per-
accident matches the observed DPA; and splits the observed accidents
between reaction-window failures and other-driver anticipation
failures.
"""

from __future__ import annotations

import numpy as np

from ..analysis.alertness import fit_reaction_times
from ..errors import InsufficientDataError
from ..pipeline.store import FailureDatabase
from ..taxonomy import Modality
from .config import DriverConfig, SimulatorConfig, TrafficConfig

#: Share of field accidents attributed to other-driver anticipation
#: failures (both Section II case studies are of this kind; most
#: reported collisions were rear-ends on the AV).
DEFAULT_ANTICIPATION_SHARE = 0.5


def _window_exceed_probability(driver: DriverConfig,
                               traffic: TrafficConfig,
                               samples: int = 50000,
                               seed: int = 0) -> float:
    """P(response window > conflict budget), by Monte Carlo."""
    from scipy import stats as sstats

    rng = np.random.default_rng(seed)
    reactions = sstats.exponweib.rvs(
        driver.reaction_a, driver.reaction_c,
        scale=driver.reaction_scale, size=samples, random_state=rng)
    reactions = reactions * driver.alertness_factor
    proactive = rng.random(samples) < driver.proactive_share
    detections = rng.exponential(
        traffic.mean_detection_latency_s, size=samples)
    windows = reactions + np.where(proactive, 0.0, detections)
    budgets = rng.exponential(traffic.mean_time_budget_s, size=samples)
    return float(np.mean(windows > budgets))


def calibrate_from_database(db: FailureDatabase, manufacturer: str,
                            anticipation_share: float =
                            DEFAULT_ANTICIPATION_SHARE,
                            ) -> SimulatorConfig:
    """Build a calibrated :class:`SimulatorConfig` for a manufacturer."""
    miles = db.miles_by_manufacturer().get(manufacturer, 0.0)
    if miles <= 0:
        raise InsufficientDataError(
            f"{manufacturer}: no miles in the database")
    records = db.disengagements_by_manufacturer().get(manufacturer, [])
    if not records:
        raise InsufficientDataError(
            f"{manufacturer}: no disengagements in the database")
    dpm = len(records) / miles

    manual = sum(1 for r in records if r.modality is Modality.MANUAL)
    modal = sum(1 for r in records
                if r.modality in (Modality.MANUAL, Modality.AUTOMATIC))
    proactive_share = manual / modal if modal else 0.5

    fit = fit_reaction_times(db, manufacturer)
    driver = DriverConfig(
        reaction_a=fit.a, reaction_c=fit.c, reaction_scale=fit.scale,
        proactive_share=proactive_share)

    accidents = len(db.accidents_by_manufacturer().get(
        manufacturer, []))
    traffic = TrafficConfig()
    if accidents:
        reaction_accidents = accidents * (1.0 - anticipation_share)
        anticipation_accidents = accidents - reaction_accidents
        # Target P(accident | disengagement) for the reaction channel.
        target = reaction_accidents / len(records)
        exceed = _window_exceed_probability(driver, traffic)
        conflict = min(max(target / max(exceed, 1e-6), 0.0), 1.0)
        traffic = TrafficConfig(
            conflict_probability=conflict,
            mean_time_budget_s=traffic.mean_time_budget_s,
            mean_detection_latency_s=traffic.mean_detection_latency_s,
            anticipation_accident_rate_per_mile=(
                anticipation_accidents / miles),
        )
    return SimulatorConfig(dpm=dpm, driver=driver, traffic=traffic)
