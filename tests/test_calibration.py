"""Tests for the calibration registry: the paper's published numbers."""

import pytest

from repro.calibration.accidents import ACCIDENT_PROFILES
from repro.calibration.baselines import PAPER_MEDIAN_DPM
from repro.calibration.fault_model import (
    FAULT_MIXTURES,
    TABLE4_MANUFACTURERS,
    fault_mixture,
)
from repro.calibration.manufacturers import (
    ANALYSIS_MANUFACTURERS,
    EXCLUDED_MANUFACTURERS,
    MANUFACTURERS,
    ReportPeriod,
    get_manufacturer,
    total_accidents,
    total_disengagements,
    total_miles,
)
from repro.calibration.modality import MODALITY_MIXTURES, modality_mixture
from repro.calibration.roads import ROAD_TYPE_SHARES
from repro.calibration.trends import DPM_TRENDS, dpm_trend
from repro.errors import CalibrationError
from repro.reporting.fidelity import TABLE4
from repro.taxonomy import (
    FailureCategory,
    MlSubcategory,
    category_of,
    ml_subcategory_of,
)


def _percent(weights, classify, group) -> float:
    """Percent of a mixture's probability mass whose tags ``classify``
    puts in ``group``."""
    return 100 * sum(weight for tag, weight in weights.items()
                     if classify(tag) is group)


class TestTable1Totals:
    """The abstract's headline dataset numbers."""

    def test_total_miles(self):
        assert total_miles() == pytest.approx(1116605.0, abs=1.0)

    def test_total_disengagements(self):
        assert total_disengagements() == 5328

    def test_total_accidents(self):
        assert total_accidents() == 42

    def test_period_subtotals(self):
        dis = {p: 0 for p in ReportPeriod}
        for manufacturer in MANUFACTURERS.values():
            for period in ReportPeriod:
                dis[period] += (
                    manufacturer.stats(period).disengagements or 0)
        assert dis[ReportPeriod.P2015_2016] == 2896
        assert dis[ReportPeriod.P2016_2017] == 2432

    def test_analysis_set_has_5324_disengagements(self):
        # "we use the 5,324 disengagements (across eight manufacturers)"
        total = sum(MANUFACTURERS[n].total_disengagements
                    for n in ANALYSIS_MANUFACTURERS)
        assert total == 5324

    def test_twelve_manufacturers(self):
        assert len(MANUFACTURERS) == 12

    def test_eight_analyzed_manufacturers(self):
        assert len(ANALYSIS_MANUFACTURERS) == 8
        assert set(EXCLUDED_MANUFACTURERS) == {
            "Uber ATC", "Honda", "Ford", "BMW"}

    def test_waymo_dominates_mileage(self):
        waymo = get_manufacturer("Waymo")
        assert waymo.total_miles > 0.9 * total_miles()

    def test_unknown_manufacturer_raises(self):
        with pytest.raises(CalibrationError):
            get_manufacturer("Cruithne Motors")


class TestFaultMixtures:
    def test_all_mixtures_sum_to_one(self):
        for mixture in FAULT_MIXTURES.values():
            assert sum(mixture.weights.values()) == pytest.approx(1.0)

    @pytest.mark.parametrize("name,planner,perception,system,unknown", [
        (name, *TABLE4[name])
        for name in ("Delphi", "Nissan", "Tesla", "Waymo")])
    def test_table4_category_sums(self, name, planner, perception,
                                  system, unknown):
        weights = fault_mixture(name).weights
        assert _percent(weights, ml_subcategory_of,
                        MlSubcategory.PLANNER) == pytest.approx(
                            planner, abs=0.01)
        assert _percent(weights, ml_subcategory_of,
                        MlSubcategory.PERCEPTION) == pytest.approx(
                            perception, abs=0.01)
        assert _percent(weights, category_of,
                        FailureCategory.SYSTEM) == pytest.approx(
                            system, abs=0.01)
        assert _percent(weights, category_of,
                        FailureCategory.UNKNOWN) == pytest.approx(
                            unknown, abs=0.01)

    def test_volkswagen_is_system_dominated(self):
        weights = fault_mixture("Volkswagen").weights
        assert _percent(weights, category_of,
                        FailureCategory.SYSTEM) == pytest.approx(
                            TABLE4["Volkswagen"][2], abs=0.01)

    def test_table4_manufacturer_set(self):
        assert set(TABLE4_MANUFACTURERS) == {
            "Delphi", "Nissan", "Tesla", "Volkswagen", "Waymo"}

    def test_unknown_manufacturer_gets_default_mixture(self):
        mixture = fault_mixture("Ford")
        assert sum(mixture.weights.values()) == pytest.approx(1.0)

    def test_tags_sorted_by_weight(self):
        mixture = fault_mixture("Waymo")
        tags = mixture.tags()
        weights = [mixture.weights[t] for t in tags]
        assert weights == sorted(weights, reverse=True)


class TestModalityMixtures:
    @pytest.mark.parametrize("name", ["Bosch", "GMCruise"])
    def test_planned_only_manufacturers(self, name):
        from repro.taxonomy import Modality
        assert modality_mixture(name).share(
            Modality.PLANNED) == pytest.approx(1.0)

    def test_volkswagen_all_automatic(self):
        from repro.taxonomy import Modality
        assert modality_mixture("Volkswagen").share(
            Modality.AUTOMATIC) == pytest.approx(1.0)

    def test_all_mixtures_sum_to_one(self):
        for mixture in MODALITY_MIXTURES.values():
            assert sum(mixture.weights.values()) == pytest.approx(1.0)


class TestAccidentsAndSpeeds:
    def test_accident_counts_sum_to_42(self):
        assert sum(p.accidents
                   for p in ACCIDENT_PROFILES.values()) == 42

    def test_waymo_majority_of_accidents(self):
        assert ACCIDENT_PROFILES["Waymo"].accidents == 25

    def test_uber_has_no_dpa(self):
        assert ACCIDENT_PROFILES["Uber ATC"].dpa is None

    def test_speed_model_matches_below_10mph_claim(self, paper_rows):
        # ">80% of accidents below 10 mph relative speed"
        paper_rows.check("fig12-below-10mph")


class TestTrendsAndRoads:
    def test_every_manufacturer_has_a_trend(self):
        for name in MANUFACTURERS:
            assert dpm_trend(name).manufacturer == name

    def test_bosch_is_the_worsening_exception(self):
        positive = [name for name, trend in DPM_TRENDS.items()
                    if trend.slope > 0]
        assert positive == ["Bosch"]

    def test_waymo_improves_fastest_among_big_reporters(self):
        assert DPM_TRENDS["Waymo"].slope < DPM_TRENDS["Delphi"].slope

    def test_road_shares_sum_to_one(self):
        assert sum(ROAD_TYPE_SHARES.values()) == pytest.approx(1.0)

    def test_city_streets_largest_share(self):
        from repro.calibration.roads import RoadType
        assert max(ROAD_TYPE_SHARES, key=ROAD_TYPE_SHARES.get) is \
            RoadType.CITY_STREET

    def test_paper_median_dpm_has_all_analysis_manufacturers(self):
        assert set(PAPER_MEDIAN_DPM) == set(ANALYSIS_MANUFACTURERS)
