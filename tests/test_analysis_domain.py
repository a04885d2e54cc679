"""Tests for the domain analyses (DPM, categories, alertness, APM,
missions, maturity, significance) over the session database."""

import pytest

from repro.analysis.alertness import (
    action_window,
    alertness_summary,
    human_baseline,
)
from repro.analysis.apm import apm_summary
from repro.analysis.categories import (
    category_percentages,
    tag_fractions,
)
from repro.analysis.dpm import (
    has_vehicle_attribution,
    manufacturer_dpm_summary,
    monthly_series,
    per_unit_dpm,
    yearly_dpm_distributions,
)
from repro.analysis.maturity import assess_maturity
from repro.analysis.missions import accidents_per_mission, mission_comparison
from repro.analysis.significance import (
    failure_rate_confidence,
    miles_to_demonstrate,
    rate_upper_bound,
)
from repro.errors import AnalysisError, InsufficientDataError

ANALYSIS = ["Mercedes-Benz", "Volkswagen", "Waymo", "Delphi", "Nissan",
            "Bosch", "GMCruise", "Tesla"]


class TestDpm:
    def test_monthly_series_cumulative_monotone(self, db):
        series = monthly_series(db, "Waymo")
        cumulative = [p.cumulative_miles for p in series]
        assert cumulative == sorted(cumulative)

    def test_vehicle_attribution_detection(self, db):
        assert has_vehicle_attribution(db, "Waymo")
        assert has_vehicle_attribution(db, "Nissan")
        assert not has_vehicle_attribution(db, "GMCruise")
        assert not has_vehicle_attribution(db, "Tesla")

    def test_per_unit_dpm_units(self, db):
        unit, dpm = per_unit_dpm(db, "Waymo")
        assert unit == "car"
        assert len(dpm) >= 70  # at least the period-2 fleet
        unit, dpm = per_unit_dpm(db, "GMCruise")
        assert unit == "month"

    def test_summary_covers_analysis_set(self, db):
        summaries = manufacturer_dpm_summary(db, ANALYSIS)
        assert set(summaries) == set(ANALYSIS)

    def test_waymo_is_best_by_far(self, db):
        summaries = manufacturer_dpm_summary(db, ANALYSIS)
        waymo = summaries["Waymo"].median_dpm
        for name, summary in summaries.items():
            if name != "Waymo":
                assert summary.median_dpm > 10 * waymo

    def test_median_dpm_orders_of_magnitude_match_paper(self, paper_rows):
        paper_rows.check("table7-*-median-dpm")

    def test_yearly_distributions_have_three_years(self, db):
        yearly = yearly_dpm_distributions(db, ["Waymo"])
        assert set(yearly["Waymo"]) == {2014, 2015, 2016}

    def test_waymo_median_dpm_improves_by_year(self, paper_rows):
        paper_rows.check("fig7-waymo-improvement")


class TestMaturity:
    def test_pooled_correlation_matches_paper(self, paper_rows):
        paper_rows.check("fig8-pooled-*")

    def test_most_manufacturers_improving(self, paper_rows):
        paper_rows.check("fig9-not-improving", "fig9-waymo-dpm-slope")

    def test_bosch_is_not_improving(self, db):
        assessment = assess_maturity(db, "Bosch")
        assert not assessment.improving

    def test_nobody_is_mature(self, paper_rows):
        paper_rows.check("fig9-nobody-mature")

    def test_cumulative_fits_have_high_r2(self, paper_rows):
        paper_rows.check("fig5-min-cumulative-r2")


class TestCategories:
    def test_headline_64_percent_ml(self, paper_rows):
        paper_rows.check("table4-*-share")

    def test_table4_shape(self, db, paper_rows):
        rows = category_percentages(
            db, ["Delphi", "Nissan", "Tesla", "Volkswagen", "Waymo"])
        for row in rows.values():
            assert sum(row.values()) == pytest.approx(100.0, abs=0.1)
        paper_rows.check(*(f"table4-{name.lower()}" for name in rows))

    def test_modality_table5_shape(self, paper_rows):
        paper_rows.check("table5-*")

    def test_automatic_share_near_half(self, paper_rows):
        paper_rows.check("table5-automatic-share")

    def test_tag_fractions_sum_to_one(self, db):
        for name, tags in tag_fractions(db).items():
            assert sum(tags.values()) == pytest.approx(1.0), name


class TestAlertness:
    def test_overall_mean_near_paper(self, paper_rows):
        paper_rows.check("fig10-mean-reaction-time")

    def test_summaries_for_reporting_manufacturers(self, db):
        summaries = alertness_summary(db)
        assert {"Nissan", "Tesla", "Delphi", "Mercedes-Benz",
                "Volkswagen", "Waymo"} <= set(summaries)

    def test_vw_outlier_detected(self, db, paper_rows):
        assert alertness_summary(db)["Volkswagen"].outliers >= 1
        paper_rows.check("fig10-volkswagen-outlier")

    def test_means_comparable_to_non_av(self, db):
        summaries = alertness_summary(db)
        for name in ("Nissan", "Waymo", "Delphi"):
            assert summaries[name].comparable_to_non_av

    def test_waymo_reaction_correlates_with_miles(self, paper_rows):
        paper_rows.check("fig11-waymo-rt-miles-*")

    def test_action_window(self):
        assert action_window(0.5, 0.85) == pytest.approx(1.35)
        with pytest.raises(InsufficientDataError):
            action_window(-1, 0.5)

    def test_human_baseline_values(self):
        baseline = human_baseline()
        assert baseline["non_av_braking_s"] == pytest.approx(0.82)
        assert baseline["assumed_human_s"] == pytest.approx(1.09)


class TestApm:
    def test_table6_counts(self, paper_rows):
        paper_rows.check("table6-*-accidents")

    def test_waymo_fraction(self, paper_rows):
        paper_rows.check("table6-waymo-share")

    def test_dpa_values_match_paper_shape(self, paper_rows):
        paper_rows.check("table6-*-dpa")

    def test_avs_15_to_4000x_worse_than_humans(self, db, paper_rows):
        rows = apm_summary(db, ANALYSIS)
        assert sum(r.relative_to_human is not None
                   for r in rows.values()) == 4
        paper_rows.check("table7-*-vs-human", "table7-human-ratio-span")

    def test_first_principles_apm_positive_correlation(self, paper_rows):
        paper_rows.check("table7-accidents-miles-r")

    def test_first_principles_values(self, paper_rows):
        paper_rows.check("table7-waymo-first-principles-apm")

    def test_speed_distributions_shape(self, paper_rows):
        paper_rows.check("fig12-below-10mph", "fig12-av-slower")

    def test_miles_per_disengagement_order(self, paper_rows):
        paper_rows.check("table7-miles-per-disengagement")

    def test_one_accident_per_127_disengagements(self, paper_rows):
        paper_rows.check("table6-disengagements-per-accident")


class TestMissions:
    def test_apmi_scaling(self):
        assert accidents_per_mission(2e-5) == pytest.approx(2e-4)

    def test_table8_shape(self, db, paper_rows):
        rows = mission_comparison(db, ANALYSIS)
        assert not rows["Waymo"].safer_than_airline
        assert rows["Waymo"].safer_than_surgical_robot
        assert not rows["GMCruise"].safer_than_surgical_robot
        paper_rows.check("table8-waymo-*", "table8-gmcruise-*")


class TestSignificance:
    def test_kalra_paddock_headline(self):
        # ~1.5M failure-free miles to demonstrate the human rate at 95%.
        miles = miles_to_demonstrate(2e-6, confidence=0.95)
        assert miles == pytest.approx(1.5e6, rel=0.01)

    def test_upper_bound_decreases_with_miles(self):
        assert rate_upper_bound(1e6, 5) < rate_upper_bound(1e5, 5)

    def test_bounds_bracket_point_estimate(self):
        miles, failures = 1e6, 10
        point = failures / miles
        assert rate_upper_bound(miles, failures) > point

    def test_waymo_apm_significant_vs_human(self, db):
        # The paper: Waymo and GMCruise APM estimates significant >90%.
        assert failure_rate_confidence(1060200, 25, 2e-6) > 0.90

    def test_confidence_monotone_in_failures(self):
        low = failure_rate_confidence(1e6, 1, 2e-6)
        high = failure_rate_confidence(1e6, 20, 2e-6)
        assert high > low

    def test_invalid_inputs_raise(self):
        with pytest.raises(AnalysisError):
            miles_to_demonstrate(0.0)
        with pytest.raises(AnalysisError):
            miles_to_demonstrate(1e-6, confidence=1.5)
        with pytest.raises(AnalysisError):
            rate_upper_bound(-1, 0)
