"""Tests for narrative generation and accident synthesis."""

import numpy as np
import pytest

from repro.synth.accidents import synthesize_accidents
from repro.synth.fleet import build_roster
from repro.synth.narratives import TEMPLATES, NarrativeGenerator
from repro.taxonomy import FaultTag, Modality


class TestNarratives:
    @pytest.fixture
    def generator(self):
        return NarrativeGenerator(np.random.default_rng(0))

    def test_every_tag_has_templates(self):
        for tag in FaultTag:
            assert TEMPLATES[tag], f"{tag} has no templates"

    def test_narratives_are_nonempty_for_all_tags(self, generator):
        for tag in FaultTag:
            for _ in range(5):
                assert generator.narrative(tag).strip()

    def test_slots_are_always_filled(self, generator):
        for tag in FaultTag:
            for _ in range(20):
                assert "{x}" not in generator.narrative(tag)

    def test_watchdog_appears_in_hang_crash(self, generator):
        texts = [generator.narrative(FaultTag.HANG_CRASH)
                 for _ in range(10)]
        assert all("watchdog" in t.lower() for t in texts)

    def test_unknown_narratives_are_vague(self, generator):
        # Unknown-tag narratives must not contain strong keywords that
        # would let the tagger mislabel them systematically.
        for _ in range(30):
            text = generator.narrative(FaultTag.UNKNOWN).lower()
            for keyword in ("watchdog", "lidar", "planner", "software"):
                assert keyword not in text

    def test_planned_modality_gets_planned_lead(self):
        generator = NarrativeGenerator(np.random.default_rng(1))
        texts = [generator.narrative(FaultTag.SOFTWARE, Modality.PLANNED)
                 for _ in range(40)]
        assert any(t.startswith("Planned") for t in texts)

    def test_vocabulary_lists_all_tags(self):
        assert set(TEMPLATES) == set(FaultTag)


class TestAccidentSynthesis:
    @pytest.fixture(scope="class")
    def waymo_accidents(self):
        rng = np.random.default_rng(3)
        roster = build_roster("Waymo", rng)
        return synthesize_accidents("Waymo", roster, rng)

    def test_waymo_accident_count(self, waymo_accidents):
        assert len(waymo_accidents) == 25  # 9 + 16 per Table I

    def test_accidents_have_locations_in_mountain_view(
            self, waymo_accidents):
        assert all("Mountain View" in a.location
                   for a in waymo_accidents)

    def test_speeds_are_low_and_bounded(self, waymo_accidents):
        for accident in waymo_accidents:
            assert 0 <= accident.av_speed_mph <= 30
            assert 0 <= accident.other_speed_mph <= 40

    def test_no_injuries(self, waymo_accidents):
        # Paper: "no serious injuries were reported."
        assert not any(a.injuries for a in waymo_accidents)

    def test_collision_types_mostly_rear_end_or_side_swipe(
            self, waymo_accidents):
        minor = sum(1 for a in waymo_accidents
                    if a.collision_type in ("rear-end", "side-swipe"))
        assert minor >= len(waymo_accidents) * 0.6

    def test_redacted_accidents_lack_vehicle_ids(self, waymo_accidents):
        for accident in waymo_accidents:
            if accident.redacted:
                assert accident.vehicle_id is None

    def test_accidents_sorted_by_date(self, waymo_accidents):
        dates = [a.event_date for a in waymo_accidents]
        assert dates == sorted(dates)

    def test_object_collisions_have_zero_other_speed(self):
        rng = np.random.default_rng(11)
        roster = build_roster("GMCruise", rng)
        accidents = synthesize_accidents("GMCruise", roster, rng)
        for accident in accidents:
            if accident.collision_type == "object":
                assert accident.other_speed_mph == 0.0

    def test_manufacturer_without_accidents_yields_none(self):
        rng = np.random.default_rng(4)
        roster = build_roster("Bosch", rng)
        assert synthesize_accidents("Bosch", roster, rng) == []
