"""Tests for normalization, filtering, registry dispatch, and the
OL-316 accident parser."""

from datetime import date

import pytest

from repro.errors import ParseError
from repro.parsing.accidents import parse_accident_report
from repro.parsing.base import ParserRegistry, _levenshtein, default_registry
from repro.parsing.filters import filter_records
from repro.parsing.formats.benz import BenzParser
from repro.parsing.formats.nissan import NissanParser
from repro.parsing.formats.waymo import WaymoParser
from repro.parsing.normalize import (
    NormalizationStats,
    normalize_accident,
    normalize_disengagement,
    normalize_records,
)
from repro.parsing.records import AccidentRecord, DisengagementRecord, MonthlyMileage
from repro.taxonomy import Modality


def _record(**overrides):
    base = dict(manufacturer="Nissan", month="2015-03",
                description="Software module froze")
    base.update(overrides)
    return DisengagementRecord(**base)


class TestNormalization:
    def test_valid_record_passes(self):
        stats = NormalizationStats()
        record = normalize_disengagement(_record(), stats)
        assert record is not None
        assert stats.disengagements_dropped == 0

    def test_bad_month_dropped(self):
        stats = NormalizationStats()
        assert normalize_disengagement(
            _record(month="2015-13"), stats) is None
        assert stats.reasons["invalid month"] == 1

    def test_empty_description_dropped(self):
        stats = NormalizationStats()
        assert normalize_disengagement(
            _record(description="   "), stats) is None

    def test_whitespace_collapsed(self):
        stats = NormalizationStats()
        record = normalize_disengagement(
            _record(description="a   b\t c"), stats)
        assert record.description == "a b c"

    def test_nonpositive_reaction_time_cleared(self):
        stats = NormalizationStats()
        record = normalize_disengagement(
            _record(reaction_time_s=-1.0), stats)
        assert record.reaction_time_s is None

    def test_suspect_reaction_time_flagged_not_dropped(self):
        stats = NormalizationStats()
        record = normalize_disengagement(
            _record(reaction_time_s=14280.0), stats)
        assert record is not None
        assert record.reaction_time_s == 14280.0
        assert stats.suspect_reaction_times == 1

    def test_negative_miles_dropped(self):
        _, mileage, stats = normalize_records(
            [], [MonthlyMileage("Nissan", "2015-03", -5.0, "x")])
        assert mileage == []
        assert stats.mileage_dropped == 1

    def test_non_finite_benz_values_rejected(self):
        # "1e999" parses to infinity, which JSON cannot carry and the
        # fingerprint would hash as null.
        parser = BenzParser()
        row = parser.parse_row(
            "Date: 03/14/2015; Time: 14:02; Vehicle: S500-1; "
            "Initiator: Driver; Cause: lidar dropout; Road: highway; "
            "Weather: Sunny/Dry; Reaction: 1e999 s")
        cell = parser.parse_mileage(
            "Month: 2015-03; Vehicle: S500-1; Autonomous km: 1e999")
        records, mileage, stats = normalize_records([row], [cell])
        assert len(records) == 1
        assert records[0].reaction_time_s is None
        assert stats.suspect_reaction_times == 0
        assert mileage == []
        assert stats.mileage_dropped == 1
        assert stats.reasons == {"non-finite reaction time": 1,
                                 "non-finite miles": 1}

    @pytest.mark.parametrize("speed", [float("inf"), float("-inf"),
                                       float("nan"), -3.0])
    def test_unusable_accident_speed_cleared(self, speed):
        accident = normalize_accident(AccidentRecord(
            manufacturer="Waymo", av_speed_mph=speed,
            other_speed_mph=12.0, description="rear-end"))
        assert accident.av_speed_mph is None
        assert accident.other_speed_mph == 12.0

    def test_accident_month_derived_from_date(self):
        accident = AccidentRecord(
            manufacturer="Waymo", event_date=date(2016, 5, 2),
            description="  a   b ")
        normalized = normalize_accident(accident)
        assert normalized.month == "2016-05"
        assert normalized.description == "a b"


class TestFilters:
    def test_exact_duplicates_dropped(self):
        records = [_record(), _record()]
        kept, stats = filter_records(records)
        assert len(kept) == 1
        assert stats.duplicates_dropped == 1

    def test_distinct_records_kept(self):
        records = [_record(), _record(description="other cause")]
        kept, stats = filter_records(records)
        assert len(kept) == 2

    def test_planned_annotated_but_kept_by_default(self):
        records = [_record(modality=Modality.PLANNED)]
        kept, stats = filter_records(records)
        assert len(kept) == 1
        assert stats.planned_annotated == 1
        assert stats.planned_dropped == 0

    def test_drop_planned_mode(self):
        records = [_record(modality=Modality.PLANNED),
                   _record(modality=Modality.MANUAL)]
        kept, stats = filter_records(records, drop_planned=True)
        assert len(kept) == 1
        assert stats.planned_dropped == 1


class TestRegistry:
    def test_levenshtein(self):
        assert _levenshtein("waymo", "waymo") == 0
        assert _levenshtein("wayrno", "waymo") <= 2
        assert _levenshtein("abc", "xyz") == 3
        assert _levenshtein("short", "muchlongername") > 4

    def test_lookup_exact(self):
        registry = default_registry()
        assert registry.by_name("Waymo").manufacturer == "Waymo"

    def test_lookup_fuzzy(self):
        registry = default_registry()
        assert registry.by_name("Wayrno").manufacturer == "Waymo"
        assert registry.by_name("N1ssan").manufacturer == "Nissan"

    def test_lookup_miss(self):
        registry = default_registry()
        assert registry.by_name("Completely Unknown Motors") is None

    def test_resolve_by_header(self):
        lines = ["REPORT OF AUTONOMOUS VEHICLE DISENGAGEMENTS",
                 "Manufacturer: Nissan", ""]
        parser = default_registry().resolve(lines)
        assert parser.manufacturer == "Nissan"

    def test_resolve_by_sniffing_when_header_damaged(self):
        lines = ["garbage header",
                 "May-16 — Highway — Manual — Safe Operation — "
                 "Disengage for sun glare"] * 3
        parser = default_registry().resolve(lines)
        assert parser.manufacturer == "Waymo"

    def test_resolve_unknown_format_raises(self):
        with pytest.raises(ParseError):
            default_registry().resolve(["???", "!!!"])

    def test_register_requires_name(self):
        registry = ParserRegistry()
        parser = NissanParser()
        registry.register(parser)
        assert registry.parsers() == [parser]

    def test_parse_report_end_to_end(self):
        lines = [
            "REPORT OF AUTONOMOUS VEHICLE DISENGAGEMENTS",
            "Manufacturer: Nissan",
            "SECTION 1: AUTONOMOUS MILES",
            "MILES 2016-01 Leaf #1 (Alfa) 120.5",
            "SECTION 2: DISENGAGEMENT EVENTS",
            "1/4/16 — 1:25 PM — Leaf #1 (Alfa) — Manual — Software "
            "module froze — city street — Sunny/Dry — 0.9 s",
            "END OF REPORT",
        ]
        report = default_registry().resolve(lines).parse(lines, "doc-1")
        assert len(report.disengagements) == 1
        assert len(report.mileage) == 1
        assert report.total_miles == pytest.approx(120.5)
        assert report.disengagements[0].source_document == "doc-1"


class TestAccidentParser:
    def _lines(self, **overrides):
        fields = {
            "Manufacturer": "Waymo",
            "Date of Accident": "05/12/2016",
            "Location": "El Camino Real and Castro St, Mountain View, CA",
            "Vehicle": "AV-007",
            "Autonomous Mode at Time of Collision": "YES",
            "AV Speed": "4.2 MPH",
            "Other Vehicle Speed": "9.1 MPH",
            "Collision Type": "rear-end",
            "Injuries": "NONE",
            "Description": "The AV was struck from behind.",
        }
        fields.update(overrides)
        return ["STATE OF CALIFORNIA",
                "REPORT OF TRAFFIC ACCIDENT INVOLVING AN AUTONOMOUS "
                "VEHICLE (OL 316)"] + [
            f"{key}: {value}" for key, value in fields.items()]

    def test_full_parse(self):
        record = parse_accident_report(self._lines(), "acc-1")
        assert record.manufacturer == "Waymo"
        assert record.event_date == date(2016, 5, 12)
        assert record.av_speed_mph == pytest.approx(4.2)
        assert record.other_speed_mph == pytest.approx(9.1)
        assert record.relative_speed_mph == pytest.approx(4.9)
        assert record.autonomous_at_collision is True
        assert record.collision_type == "rear-end"
        assert not record.injuries
        assert record.vehicle_id == "AV-007"

    def test_redacted_vehicle(self):
        record = parse_accident_report(
            self._lines(Vehicle="[REDACTED]"), "acc-2")
        assert record.redacted
        assert record.vehicle_id is None

    def test_pre_collision_disengagement_detected(self):
        record = parse_accident_report(self._lines(
            Description="Contact. The test driver disengaged "
                        "autonomous mode prior to the collision."),
            "acc-3")
        assert record.disengaged_before_collision

    def test_damaged_manufacturer_snapped(self):
        record = parse_accident_report(
            self._lines(Manufacturer="Wayrno"), "acc-4")
        assert record.manufacturer == "Waymo"

    def test_unknown_speed_is_none(self):
        record = parse_accident_report(
            self._lines(**{"AV Speed": "UNKNOWN"}), "acc-5")
        assert record.av_speed_mph is None
        assert record.relative_speed_mph is None

    def test_non_accident_document_rejected(self):
        with pytest.raises(ParseError):
            parse_accident_report(["just", "text"], "acc-6")
