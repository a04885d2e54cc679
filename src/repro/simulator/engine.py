"""The trip simulation engine.

A trip is a length in miles.  Disengagements arrive as a Poisson
process along it.  At each disengagement:

* With probability ``proactive_share`` the driver initiated it —
  there is no detection latency, and the response window is just the
  (alertness-scaled) reaction time.
* Otherwise the ADS raises a takeover request after an exponential
  detection latency, and the window is detection + reaction.

If a traffic conflict is present (probability
``conflict_probability``) the conflict allows an exponential time
budget; a response window exceeding it is an accident.  Independently,
other-driver anticipation failures (Case Study II) arrive as their own
Poisson process along the trip and collide with the AV regardless of
any disengagement.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..errors import AnalysisError
from ..rng import exponweib_variate, generator
from .config import SimulatorConfig


@dataclass
class TripResult:
    """Outcome of one simulated trip."""

    miles: float
    disengagements: int = 0
    proactive_disengagements: int = 0
    reaction_accidents: int = 0
    anticipation_accidents: int = 0
    #: Response windows (s) observed at disengagements.
    windows: list[float] = field(default_factory=list)

    @property
    def accidents(self) -> int:
        """Total accidents on the trip."""
        return self.reaction_accidents + self.anticipation_accidents


@dataclass
class FleetResult:
    """Aggregated fleet statistics over many trips."""

    trips: int = 0
    miles: float = 0.0
    disengagements: int = 0
    proactive_disengagements: int = 0
    reaction_accidents: int = 0
    anticipation_accidents: int = 0
    windows: list[float] = field(default_factory=list)

    @property
    def accidents(self) -> int:
        """Total simulated accidents."""
        return self.reaction_accidents + self.anticipation_accidents

    @property
    def dpm(self) -> float:
        """Measured disengagements per mile."""
        return self.disengagements / self.miles if self.miles else 0.0

    @property
    def apm(self) -> float:
        """Measured accidents per mile."""
        return self.accidents / self.miles if self.miles else 0.0

    @property
    def dpa(self) -> float | None:
        """Measured disengagements per accident."""
        if self.accidents == 0:
            return None
        return self.disengagements / self.accidents

    @property
    def manual_share(self) -> float:
        """Share of disengagements that were driver-initiated."""
        if self.disengagements == 0:
            return 0.0
        return self.proactive_disengagements / self.disengagements

    @property
    def mean_window_s(self) -> float:
        """Mean response window at disengagements."""
        if not self.windows:
            return 0.0
        return float(np.mean(self.windows))

    def absorb(self, trip: TripResult) -> None:
        """Fold one trip into the fleet totals."""
        self.trips += 1
        self.miles += trip.miles
        self.disengagements += trip.disengagements
        self.proactive_disengagements += trip.proactive_disengagements
        self.reaction_accidents += trip.reaction_accidents
        self.anticipation_accidents += trip.anticipation_accidents
        self.windows.extend(trip.windows)


def _sample_reaction(config: SimulatorConfig,
                     rng: np.random.Generator) -> float:
    driver = config.driver
    value = exponweib_variate(
        driver.reaction_a, driver.reaction_c, driver.reaction_scale, rng)
    return value * driver.alertness_factor


def simulate_trip(config: SimulatorConfig,
                  rng: np.random.Generator) -> TripResult:
    """Simulate a single trip."""
    mu = np.log(config.median_trip_miles)
    miles = float(rng.lognormal(mu, config.trip_sigma))
    trip = TripResult(miles=miles)
    traffic = config.traffic

    count = rng.poisson(config.dpm * miles) if config.dpm > 0 else 0
    for _ in range(count):
        trip.disengagements += 1
        proactive = rng.random() < config.driver.proactive_share
        if proactive:
            trip.proactive_disengagements += 1
            window = _sample_reaction(config, rng)
        else:
            detection = (rng.exponential(
                traffic.mean_detection_latency_s)
                if traffic.mean_detection_latency_s > 0 else 0.0)
            window = detection + _sample_reaction(config, rng)
        trip.windows.append(window)
        if rng.random() < traffic.conflict_probability:
            budget = rng.exponential(traffic.mean_time_budget_s)
            if window > budget:
                trip.reaction_accidents += 1

    rate = traffic.anticipation_accident_rate_per_mile
    if rate > 0:
        trip.anticipation_accidents += int(rng.poisson(rate * miles))
    return trip


def simulate_fleet(config: SimulatorConfig, trips: int,
                   seed: int | None = None) -> FleetResult:
    """Simulate ``trips`` independent trips."""
    if trips <= 0:
        raise AnalysisError("trips must be positive")
    rng = generator(seed)
    fleet = FleetResult()
    for _ in range(trips):
        fleet.absorb(simulate_trip(config, rng))
    return fleet
