"""Tests for the extension analyses of reporting conditions."""

import pytest

from repro.analysis.conditions import (
    reporting_census,
    road_type_breakdown,
    road_type_enrichment,
    weather_breakdown,
)
from repro.errors import InsufficientDataError


class TestConditions:
    def test_road_breakdown_shares_sum_to_one(self, db):
        breakdown = road_type_breakdown(db)
        assert sum(breakdown.shares.values()) == pytest.approx(1.0)
        assert breakdown.total > 1000

    def test_city_streets_dominate(self, db):
        breakdown = road_type_breakdown(db)
        top_road, _ = breakdown.top(1)[0]
        assert top_road in ("city street", "highway")

    def test_per_manufacturer_filter(self, db):
        breakdown = road_type_breakdown(db, "Waymo")
        assert breakdown.total <= len(
            db.disengagements_by_manufacturer()["Waymo"])

    def test_manufacturer_without_conditions_raises(self, db):
        # GMCruise reports no road types.
        with pytest.raises(InsufficientDataError):
            road_type_breakdown(db, "GMCruise")

    def test_weather_breakdown(self, db):
        breakdown = weather_breakdown(db)
        assert sum(breakdown.shares.values()) == pytest.approx(1.0)
        assert any("Sunny" in key for key in breakdown.shares)

    def test_enrichment_near_one_by_construction(self, db):
        # The synthesizer samples events against exposure, so no road
        # type should be wildly enriched.
        enrichment = road_type_enrichment(db)
        for road, ratio in enrichment.items():
            assert 0.5 <= ratio <= 2.0, road

    def test_reporting_census(self, db):
        census = reporting_census(db)
        assert census["Waymo"]["reaction_time_s"] > 0.9
        assert census["GMCruise"]["reaction_time_s"] == 0.0
        assert census["Bosch"]["weather"] > 0.9
        for name, fields in census.items():
            for field, share in fields.items():
                assert 0.0 <= share <= 1.0, (name, field)

