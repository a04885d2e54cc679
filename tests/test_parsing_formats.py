"""Round-trip tests for every per-manufacturer format parser.

Each test renders a canonical record with the synth renderer and
checks the matching parser recovers the same fields (clean text; the
OCR-noise path is covered by the integration tests).
"""

from datetime import date

import pytest

from repro.parsing.formats.benz import BenzParser
from repro.parsing.formats.bosch import BoschParser
from repro.parsing.formats.delphi import DelphiParser
from repro.parsing.formats.generic import GenericParser
from repro.parsing.formats.gmcruise import GmCruiseParser
from repro.parsing.formats.nissan import NissanParser
from repro.parsing.formats.tesla import TeslaParser
from repro.parsing.formats.volkswagen import VolkswagenParser
from repro.parsing.formats.waymo import WaymoParser
from repro.parsing.records import DisengagementRecord, MonthlyMileage
from repro.synth.reports import _ROW_RENDERERS, _render_mileage_line
from repro.taxonomy import Modality


def _record(manufacturer, **overrides):
    base = dict(
        manufacturer=manufacturer,
        month="2015-03",
        event_date=date(2015, 3, 14),
        time_of_day=(13, 25, 7),
        vehicle_id="...4T8R2",
        modality=Modality.MANUAL,
        road_type="highway",
        weather="Sunny/Dry",
        reaction_time_s=0.9,
        description="Software module froze",
    )
    base.update(overrides)
    return DisengagementRecord(**base)


def _roundtrip(parser, record):
    line = _ROW_RENDERERS[record.manufacturer](record)
    parsed = parser.parse_row(line)
    assert parsed is not None, f"row not recognized: {line!r}"
    return parsed


class TestNissan:
    def test_roundtrip(self):
        record = _record("Nissan", vehicle_id="Leaf #1 (Alfa)")
        parsed = _roundtrip(NissanParser(), record)
        assert parsed.event_date == record.event_date
        assert parsed.time_of_day == (13, 25, 0)  # minute granularity
        assert parsed.vehicle_id == "Leaf #1 (Alfa)"
        assert parsed.modality is Modality.MANUAL
        assert parsed.road_type == "highway"
        assert parsed.weather == "Sunny/Dry"
        assert parsed.reaction_time_s == pytest.approx(0.9)
        assert parsed.description == "Software module froze"

    def test_without_reaction_time(self):
        record = _record("Nissan", vehicle_id="Leaf #1 (Alfa)",
                         reaction_time_s=None)
        parsed = _roundtrip(NissanParser(), record)
        assert parsed.reaction_time_s is None
        assert parsed.description == "Software module froze"

    def test_mileage_line(self):
        cell = MonthlyMileage("Nissan", "2015-03", 55.32,
                              "Leaf #1 (Alfa)")
        line = _render_mileage_line("Nissan", cell)
        parsed = NissanParser().parse_mileage(line)
        assert parsed.month == "2015-03"
        assert parsed.miles == pytest.approx(55.32)
        assert parsed.vehicle_id == "Leaf #1 (Alfa)"

    def test_rejects_garbage(self):
        assert NissanParser().parse_row("END OF REPORT") is None


class TestWaymo:
    def test_roundtrip_month_granularity(self):
        record = _record("Waymo", event_date=None, time_of_day=None,
                         vehicle_id="AV-003",
                         description="Disengage for a recklessly "
                                     "behaving road user")
        parsed = _roundtrip(WaymoParser(), record)
        assert parsed.month == "2015-03"
        assert parsed.event_date is None
        assert parsed.vehicle_id == "AV-003"
        assert parsed.reaction_time_s == pytest.approx(0.9)
        assert "recklessly behaving" in parsed.description

    def test_description_with_em_dash_survives(self):
        record = _record("Waymo", event_date=None, time_of_day=None,
                         vehicle_id="AV-001",
                         description="Takeover-Request — watchdog error")
        parsed = _roundtrip(WaymoParser(), record)
        assert "watchdog" in parsed.description

    def test_mileage_line(self):
        cell = MonthlyMileage("Waymo", "2016-05", 28342.1, "AV-001")
        line = _render_mileage_line("Waymo", cell)
        parsed = WaymoParser().parse_mileage(line)
        assert parsed.month == "2016-05"
        assert parsed.miles == pytest.approx(28342.1)
        assert parsed.vehicle_id == "AV-001"

    def test_mileage_with_damaged_keywords(self):
        line = "Auonomovs miles Dee-15 ear AV-O26: 824.8"
        parsed = WaymoParser().parse_mileage(line)
        assert parsed is not None
        assert parsed.month == "2015-12"
        assert parsed.vehicle_id == "AV-026"
        assert parsed.miles == pytest.approx(824.8)

    def test_event_row_not_mistaken_for_mileage(self):
        line = ("May-16 — Highway — Manual — Safe Operation — "
                "Disengage for sun glare")
        assert WaymoParser().parse_mileage(line) is None


class TestVolkswagen:
    def test_roundtrip(self):
        record = _record("Volkswagen", vehicle_id=None,
                         modality=Modality.AUTOMATIC,
                         description="watchdog error")
        parsed = _roundtrip(VolkswagenParser(), record)
        assert parsed.event_date == date(2015, 3, 14)
        assert parsed.time_of_day == (13, 25, 7)
        assert parsed.modality is Modality.AUTOMATIC
        assert parsed.description == "watchdog error"
        assert parsed.reaction_time_s == pytest.approx(0.9)

    def test_requires_takeover_marker(self):
        assert VolkswagenParser().parse_row(
            "03/14/15 — 13:25:07 — something — else") is None


class TestBenz:
    def test_roundtrip(self):
        record = _record("Mercedes-Benz", vehicle_id="S500-1")
        parsed = _roundtrip(BenzParser(), record)
        assert parsed.event_date == date(2015, 3, 14)
        assert parsed.vehicle_id == "S500-1"
        assert parsed.modality is Modality.MANUAL
        assert parsed.road_type == "highway"
        assert parsed.reaction_time_s == pytest.approx(0.9)

    def test_fuzzy_keys(self):
        line = ("Dafe: 03/14/2015; Tirne: 13:25; Vehicle: S500-1; "
                "Initiator: Driver; Causc: Software module froze; "
                "Road: highway; Weather: Sunny/Dry")
        parsed = BenzParser().parse_row(line)
        assert parsed is not None
        assert parsed.event_date == date(2015, 3, 14)
        assert parsed.description == "Software module froze"

    def test_mileage_km_conversion(self):
        cell = MonthlyMileage("Mercedes-Benz", "2015-03", 62.1371,
                              "S500-1")
        line = _render_mileage_line("Mercedes-Benz", cell)
        parsed = BenzParser().parse_mileage(line)
        assert parsed.miles == pytest.approx(62.1371, rel=1e-3)


class TestBosch:
    def test_roundtrip(self):
        record = _record("Bosch", modality=Modality.PLANNED)
        parsed = _roundtrip(BoschParser(), record)
        assert parsed.modality is Modality.PLANNED
        assert parsed.description == "Software module froze"
        assert parsed.road_type == "highway"


class TestGmCruise:
    def test_roundtrip(self):
        record = _record("GMCruise", modality=Modality.PLANNED,
                         description="Improper motion planning, again")
        parsed = _roundtrip(GmCruiseParser(), record)
        assert parsed.modality is Modality.PLANNED
        assert parsed.description == "Improper motion planning, again"

    def test_rejects_wrong_column_count(self):
        assert GmCruiseParser().parse_row("a,b,c,d") is None


class TestDelphi:
    def test_roundtrip(self):
        record = _record("Delphi", description="Planner failed, badly")
        parsed = _roundtrip(DelphiParser(), record)
        assert parsed.event_date == date(2015, 3, 14)
        assert parsed.modality is Modality.MANUAL
        assert parsed.description == "Planner failed, badly"
        assert parsed.reaction_time_s == pytest.approx(0.9)

    def test_mileage_csv(self):
        cell = MonthlyMileage("Delphi", "2015-03", 833.1, "...4T8R2")
        line = _render_mileage_line("Delphi", cell)
        parsed = DelphiParser().parse_mileage(line)
        assert parsed.miles == pytest.approx(833.1)


class TestTesla:
    def test_roundtrip(self):
        record = _record("Tesla", vehicle_id=None,
                         modality=Modality.AUTOMATIC,
                         description="Driver disengaged")
        parsed = _roundtrip(TeslaParser(), record)
        assert parsed.event_date == date(2015, 3, 14)
        assert parsed.modality is Modality.AUTOMATIC
        assert parsed.description == "Driver disengaged"
        assert parsed.reaction_time_s == pytest.approx(0.9)


class TestGeneric:
    def test_roundtrip(self):
        parser = GenericParser("Ford")
        line = "2016-08-14 | unknown vehicle | Auto | something odd"
        parsed = parser.parse_row(line)
        assert parsed.manufacturer == "Ford"
        assert parsed.vehicle_id is None
        assert parsed.modality is Modality.AUTOMATIC
        assert parsed.description == "something odd"


class TestHeaderLines:
    @pytest.mark.parametrize("line", [
        "", "   ",
        # OCR damage past a marker's first 12 characters.
        "REPORT OF AUTONOMOUS VEH1CLE D1SENGAGEMENT5",
        "  Section 1 — disengagement events",
        "END OF REPOR7", "Reporting per1od: 2015-2016",
        "MANUFACTURER: Nissan", "manufacturer  : Waymo",
    ])
    def test_header_lines(self, line):
        assert NissanParser()._is_header(line)

    @pytest.mark.parametrize("line", [
        "1/4/16 — 1:25 PM — Leaf #1 (Alfa) — Manual — froze",
        "Vehicle manufacturer: unknown",
        "SECTI0N 1",
    ])
    def test_other_lines(self, line):
        assert not NissanParser()._is_header(line)
