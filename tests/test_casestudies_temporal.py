"""Tests for the Section II case studies and temporal trend tools."""

import math

import numpy as np
import pytest
from scipy import stats as sstats

from repro.analysis.temporal import dpm_trend_test, mann_kendall
from repro.casestudies import CASE_STUDIES, CASE_STUDY_1, CASE_STUDY_2
from repro.errors import InsufficientDataError
from repro.stpa.components import STANDARD_COMPONENTS
from repro.stpa.control_loops import CONTROL_LOOPS
from repro.taxonomy import FaultTag


def _actors(case) -> set[str]:
    return {event.actor for event in case.events}


def _action_window(case) -> float:
    """Seconds from the first driver action to the collision, or 0.0
    when the driver never acts."""
    driver = [e.at_seconds for e in case.events if e.actor == "driver"]
    collision = [e.at_seconds for e in case.events if "collide" in e.action]
    return min(collision) - min(driver) if driver else 0.0


class TestCaseStudies:
    def test_both_validate_against_structure(self):
        # Every actor is a Fig. 3 component.
        for case in CASE_STUDIES:
            assert _actors(case) <= set(STANDARD_COMPONENTS)

    def test_case1_is_prediction_failure(self):
        assert FaultTag.INCORRECT_BEHAVIOR_PREDICTION in \
            CASE_STUDY_1.tags
        assert "recklessly behaving road user" in \
            CASE_STUDY_1.reported_causes[0]

    def test_case2_is_anticipation_failure(self):
        assert CASE_STUDY_2.tags == (FaultTag.ENVIRONMENT,)
        assert "non_av_driver" in _actors(CASE_STUDY_2)

    def test_both_rear_end_collisions(self):
        for case in CASE_STUDIES:
            assert case.collision_type == "rear-end"
            assert case.at_fault_legally == "non-AV driver"

    def test_both_implicate_cl1(self):
        for case in CASE_STUDIES:
            assert case.control_loop in CONTROL_LOOPS
            loop = CONTROL_LOOPS[case.control_loop]
            assert "non_av_driver" in loop.nodes

    def test_events_are_time_ordered(self):
        for case in CASE_STUDIES:
            times = [event.at_seconds for event in case.events]
            assert times == sorted(times)

    def test_case1_action_window_is_small(self):
        # The driver had ~1 s between takeover and collision.
        window = _action_window(CASE_STUDY_1)
        assert 0 < window <= 2.0

    def test_case2_has_no_driver_action(self):
        # The driver never took over in Case II.
        assert "driver" not in _actors(CASE_STUDY_2)
        assert _action_window(CASE_STUDY_2) == 0.0


class TestMannKendall:
    def test_decreasing_series(self):
        result = mann_kendall([10, 9, 8, 7, 6, 5, 4, 3, 2, 1])
        assert result.direction == "decreasing"
        assert result.significant(0.05)

    def test_increasing_series(self):
        result = mann_kendall(list(range(12)))
        assert result.direction == "increasing"
        assert result.significant(0.05)

    def test_flat_series_not_significant(self):
        result = mann_kendall([5.0] * 10)
        assert not result.significant(0.05)

    def test_random_series_usually_not_significant(self):
        rng = np.random.default_rng(0)
        result = mann_kendall(rng.normal(size=40))
        assert result.p_value > 0.01

    def test_too_short_raises(self):
        with pytest.raises(InsufficientDataError):
            mann_kendall([1, 2, 3])

    def test_far_tail_p_value_does_not_underflow(self):
        # S = -780 over 40 points gives z = -9.08, whose two-sided
        # p-value 1.12e-19 is far below 1 - cdf's resolution.
        n = 40
        result = mann_kendall(list(range(n, 0, -1)))
        z = (result.s_statistic + 1) / math.sqrt(
            n * (n - 1) * (2 * n + 5) / 18.0)
        assert result.s_statistic == -780
        assert result.z_score == pytest.approx(z, rel=1e-12)
        assert result.p_value > 0.0
        assert result.p_value == pytest.approx(
            math.erfc(abs(z) / math.sqrt(2.0)), rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("n", [10, 20, 30, 35, 40])
    def test_p_value_matches_normal_tail(self, n):
        result = mann_kendall(list(range(n, 0, -1)))
        assert result.p_value == pytest.approx(
            2.0 * sstats.norm.sf(abs(result.z_score)), rel=1e-9, abs=0.0)


class TestDbTrends:
    def test_waymo_dpm_decreasing(self, db):
        result = dpm_trend_test(db, "Waymo")
        assert result.direction == "decreasing"
        assert result.significant(0.05)

    def test_bosch_dpm_increasing(self, db):
        result = dpm_trend_test(db, "Bosch")
        assert result.direction == "increasing"

    def test_waymo_yearly_evolution(self, paper_rows):
        # Median DPM 2014 over 2016 between 3x and 30x (paper: ~8x).
        paper_rows.check("fig7-waymo-improvement")

    def test_unknown_manufacturer_raises(self, db):
        with pytest.raises(InsufficientDataError):
            dpm_trend_test(db, "Nonexistent Motors")
