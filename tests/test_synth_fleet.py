"""Tests for fleet roster synthesis."""

import numpy as np
import pytest

from repro.calibration.manufacturers import MANUFACTURERS, ReportPeriod
from repro.synth.fleet import build_roster, fleet_size


def _all_vehicles(roster):
    """Every distinct vehicle across both periods."""
    seen = {}
    for vehicles in roster.by_period.values():
        for vehicle in vehicles:
            seen.setdefault(vehicle.vehicle_id, vehicle)
    return list(seen.values())


@pytest.fixture
def rng():
    return np.random.default_rng(0)


def test_waymo_fleet_sizes_match_table1(rng):
    roster = build_roster("Waymo", rng)
    assert len(roster.vehicles(ReportPeriod.P2015_2016)) == 49
    assert len(roster.vehicles(ReportPeriod.P2016_2017)) == 70


def test_fleet_carryover_between_periods(rng):
    roster = build_roster("Waymo", rng)
    first = {v.vehicle_id for v in roster.vehicles(
        ReportPeriod.P2015_2016)}
    second = {v.vehicle_id for v in roster.vehicles(
        ReportPeriod.P2016_2017)}
    assert first <= second  # fleet grew; originals carried over


def test_fleet_shrinkage_keeps_prefix(rng):
    # Nissan: 4 cars then 3.
    roster = build_roster("Nissan", rng)
    first = roster.vehicles(ReportPeriod.P2015_2016)
    second = roster.vehicles(ReportPeriod.P2016_2017)
    assert len(first) == 4 and len(second) == 3
    assert [v.vehicle_id for v in second] == \
        [v.vehicle_id for v in first[:3]]


def test_nissan_vehicle_naming(rng):
    roster = build_roster("Nissan", rng)
    ids = [v.vehicle_id for v in roster.vehicles(
        ReportPeriod.P2015_2016)]
    assert ids[0] == "Leaf #1 (Alfa)"
    assert ids[1] == "Leaf #2 (Bravo)"


def test_waymo_vehicle_naming(rng):
    roster = build_roster("Waymo", rng)
    assert roster.vehicles(
        ReportPeriod.P2015_2016)[0].vehicle_id == "AV-001"


def test_vins_are_unique_and_17_chars(rng):
    roster = build_roster("Waymo", rng)
    vins = [v.vin for v in _all_vehicles(roster)]
    assert len(set(vins)) == len(vins)
    assert all(len(v) == 17 for v in vins)


def test_vins_exclude_ambiguous_letters(rng):
    roster = build_roster("Bosch", rng)
    for vehicle in _all_vehicles(roster):
        assert not set(vehicle.vin) & {"I", "O", "Q"}


def test_honda_has_empty_fleet(rng):
    roster = build_roster("Honda", rng)
    assert _all_vehicles(roster) == []


def test_fleet_size_uses_assumptions_for_dashes():
    gm = MANUFACTURERS["GMCruise"]
    assert fleet_size(gm, ReportPeriod.P2015_2016) == 2
    assert fleet_size(gm, ReportPeriod.P2016_2017) == 10


def test_fleet_size_reads_table1_when_present():
    bosch = MANUFACTURERS["Bosch"]
    assert fleet_size(bosch, ReportPeriod.P2015_2016) == 2
    assert fleet_size(bosch, ReportPeriod.P2016_2017) == 3


def test_rosters_are_deterministic_per_seed():
    a = build_roster("Delphi", np.random.default_rng(5))
    b = build_roster("Delphi", np.random.default_rng(5))
    assert [v.vin for v in _all_vehicles(a)] == \
        [v.vin for v in _all_vehicles(b)]
