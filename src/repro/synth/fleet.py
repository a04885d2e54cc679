"""Fleet rosters: the vehicles each manufacturer tested in each period.

Table I gives fleet sizes per reporting period (dashes where a
manufacturer did not disclose them).  Vehicles carry fleet-local names
in the styles seen in the real reports ("Leaf #1 (Alfa)" for Nissan,
VIN suffixes for others) so the per-manufacturer report renderers can
reproduce the real formats.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..calibration.manufacturers import (
    Manufacturer,
    ReportPeriod,
    get_manufacturer,
)
from ..errors import SynthesisError

_VIN_ALPHABET = "ABCDEFGHJKLMNPRSTUVWXYZ0123456789"  # no I, O, Q per spec

#: Fleet sizes assumed for manufacturers whose Table I row shows a dash
#: but who reported miles (we must place those miles on some fleet).
_ASSUMED_FLEET_SIZES: dict[tuple[str, ReportPeriod], int] = {
    ("GMCruise", ReportPeriod.P2015_2016): 2,
    ("GMCruise", ReportPeriod.P2016_2017): 10,
    ("Mercedes-Benz", ReportPeriod.P2016_2017): 2,
    ("Volkswagen", ReportPeriod.P2016_2017): 0,
    ("BMW", ReportPeriod.P2016_2017): 1,
    ("Uber ATC", ReportPeriod.P2016_2017): 1,
}

_NICKNAMES = (
    "Alfa", "Bravo", "Charlie", "Delta", "Echo", "Foxtrot", "Golf",
    "Hotel", "India", "Juliett", "Kilo", "Lima", "Mike", "November",
    "Oscar", "Papa", "Quebec", "Romeo", "Sierra", "Tango", "Uniform",
    "Victor", "Whiskey", "Xray", "Yankee", "Zulu",
)


@dataclass(frozen=True)
class Vehicle:
    """One test vehicle in a manufacturer's fleet."""

    manufacturer: str
    #: Stable fleet-local identifier, e.g. ``"Leaf #1 (Alfa)"`` or
    #: a VIN suffix like ``"...4T8R2"``.
    vehicle_id: str
    #: Full synthetic VIN (17 characters).
    vin: str
    #: First reporting period in which the vehicle was active.
    first_period: ReportPeriod


@dataclass
class FleetRoster:
    """All vehicles a manufacturer operated, by period."""

    manufacturer: str
    by_period: dict[ReportPeriod, list[Vehicle]]

    def vehicles(self, period: ReportPeriod) -> list[Vehicle]:
        """Vehicles active in ``period``."""
        return self.by_period.get(period, [])



def _synthesize_vin(rng: np.random.Generator) -> str:
    """Generate a 17-character synthetic VIN."""
    return "".join(
        _VIN_ALPHABET[i] for i in rng.integers(0, len(_VIN_ALPHABET), 17))


def _vehicle_label(manufacturer: str, index: int, vin: str) -> str:
    """Fleet-local vehicle label in the manufacturer's style."""
    if manufacturer == "Nissan":
        nickname = _NICKNAMES[index % len(_NICKNAMES)]
        return f"Leaf #{index + 1} ({nickname})"
    if manufacturer == "Waymo":
        return f"AV-{index + 1:03d}"
    if manufacturer == "Mercedes-Benz":
        return f"S500-{index + 1}"
    return f"...{vin[-5:]}"


def fleet_size(manufacturer: Manufacturer, period: ReportPeriod) -> int:
    """Fleet size for a period, applying assumptions for dashes."""
    stats = manufacturer.stats(period)
    if stats.cars is not None:
        return stats.cars
    if not stats.tested and stats.accidents in (None, 0):
        return 0
    assumed = _ASSUMED_FLEET_SIZES.get((manufacturer.name, period))
    if assumed is None:
        raise SynthesisError(
            f"{manufacturer.name} reported activity in {period} but no "
            "fleet size, and no assumption is registered")
    return assumed


def build_roster(manufacturer_name: str,
                 rng: np.random.Generator) -> FleetRoster:
    """Build the full two-period fleet roster for one manufacturer.

    Vehicles active in the first period carry over into the second;
    fleet growth adds new vehicles, and shrinkage retires the
    highest-indexed ones (real fleets rotate prototypes similarly).
    """
    manufacturer = get_manufacturer(manufacturer_name)
    by_period: dict[ReportPeriod, list[Vehicle]] = {}
    pool: list[Vehicle] = []
    for period in ReportPeriod:
        size = fleet_size(manufacturer, period)
        while len(pool) < size:
            vin = _synthesize_vin(rng)
            vehicle = Vehicle(
                manufacturer=manufacturer_name,
                vehicle_id=_vehicle_label(manufacturer_name, len(pool), vin),
                vin=vin,
                first_period=period,
            )
            pool.append(vehicle)
        by_period[period] = list(pool[:size])
    return FleetRoster(manufacturer=manufacturer_name, by_period=by_period)
