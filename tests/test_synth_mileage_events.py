"""Tests for mileage plans and disengagement-event synthesis."""

import numpy as np
import pytest

from repro.calibration.manufacturers import (
    MANUFACTURERS,
    PERIODS,
    ReportPeriod,
)
from repro.synth.events import synthesize_disengagements
from repro.synth.fleet import build_roster
from repro.synth.mileage import build_monthly_plan
from repro.taxonomy import FaultTag, Modality
from repro.units import months_between


@pytest.fixture(scope="module")
def nissan_plan():
    rng = np.random.default_rng(1)
    roster = build_roster("Nissan", rng)
    return build_monthly_plan("Nissan", roster, rng)


@pytest.fixture(scope="module")
def nissan_events(nissan_plan):
    return synthesize_disengagements(
        "Nissan", nissan_plan, np.random.default_rng(2))


class TestMileagePlan:
    def test_total_miles_match_table1(self, nissan_plan):
        expected = MANUFACTURERS["Nissan"].total_miles
        assert nissan_plan.total_miles == pytest.approx(expected,
                                                        rel=1e-9)

    def test_months_inside_reporting_periods(self, nissan_plan):
        valid = set()
        for period in ReportPeriod:
            valid.update(months_between(*PERIODS[period]))
        assert set(nissan_plan.months()) <= valid

    def test_every_cell_positive(self, nissan_plan):
        assert all(cell.miles > 0 for cell in nissan_plan.cells)

    def test_cumulative_is_monotone(self, nissan_plan):
        cumulative = list(nissan_plan.cumulative_miles().values())
        assert cumulative == sorted(cumulative)
        assert cumulative[-1] == pytest.approx(nissan_plan.total_miles)

    def test_per_vehicle_totals_cover_fleet(self, nissan_plan):
        by_vehicle: dict[str, float] = {}
        for cell in nissan_plan.cells:
            by_vehicle[cell.vehicle_id] = (
                by_vehicle.get(cell.vehicle_id, 0.0) + cell.miles)
        assert len(by_vehicle) == 4  # period-1 fleet size
        assert sum(by_vehicle.values()) == pytest.approx(
            nissan_plan.total_miles)

    def test_untested_manufacturer_has_empty_plan(self):
        rng = np.random.default_rng(3)
        roster = build_roster("Honda", rng)
        plan = build_monthly_plan("Honda", roster, rng)
        assert plan.cells == []


class TestEventSynthesis:
    def test_event_totals_match_table1_exactly(self, nissan_events):
        per_period = {p: 0 for p in ReportPeriod}
        for record in nissan_events:
            for period, (start, end) in PERIODS.items():
                if record.month in months_between(start, end):
                    per_period[period] += 1
        assert per_period[ReportPeriod.P2015_2016] == 106
        assert per_period[ReportPeriod.P2016_2017] == 29

    def test_events_carry_ground_truth_tags(self, nissan_events):
        assert all(r.truth_tag is not None for r in nissan_events)
        assert all(isinstance(r.truth_tag, FaultTag)
                   for r in nissan_events)

    def test_events_have_narratives(self, nissan_events):
        assert all(r.description for r in nissan_events)

    def test_events_have_dates_and_vehicles(self, nissan_events):
        assert all(r.event_date is not None for r in nissan_events)
        assert all(r.vehicle_id for r in nissan_events)

    def test_event_dates_fall_in_their_month(self, nissan_events):
        for record in nissan_events:
            assert record.event_date.strftime("%Y-%m") == record.month

    def test_nissan_reports_reaction_times(self, nissan_events):
        assert all(r.reaction_time_s is not None for r in nissan_events)
        assert all(r.reaction_time_s > 0 for r in nissan_events)

    def test_nissan_modalities_are_auto_or_manual(self, nissan_events):
        assert set(r.modality for r in nissan_events) <= {
            Modality.AUTOMATIC, Modality.MANUAL}

    def test_events_sorted_by_month(self, nissan_events):
        months = [r.month for r in nissan_events]
        assert months == sorted(months)

    def test_bosch_events_all_planned(self):
        rng = np.random.default_rng(4)
        roster = build_roster("Bosch", rng)
        plan = build_monthly_plan("Bosch", roster, rng)
        events = synthesize_disengagements("Bosch", plan, rng)
        assert len(events) == 625 + 1442
        assert all(r.modality is Modality.PLANNED for r in events)

    def test_waymo_events_have_month_granularity_only(self):
        rng = np.random.default_rng(5)
        roster = build_roster("Waymo", rng)
        plan = build_monthly_plan("Waymo", roster, rng)
        events = synthesize_disengagements("Waymo", plan, rng)
        assert all(r.event_date is None for r in events)
        assert all(r.month for r in events)

    def test_volkswagen_carries_the_reaction_outlier(self):
        rng = np.random.default_rng(6)
        roster = build_roster("Volkswagen", rng)
        plan = build_monthly_plan("Volkswagen", roster, rng)
        events = synthesize_disengagements("Volkswagen", plan, rng)
        longest = max(r.reaction_time_s for r in events)
        assert longest == pytest.approx(14280.0)  # the ~4 h record

    def test_synthesis_is_deterministic(self, nissan_plan):
        a = synthesize_disengagements(
            "Nissan", nissan_plan, np.random.default_rng(9))
        b = synthesize_disengagements(
            "Nissan", nissan_plan, np.random.default_rng(9))
        assert [r.description for r in a] == [r.description for r in b]
        assert [r.truth_tag for r in a] == [r.truth_tag for r in b]
