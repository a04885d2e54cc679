"""Property-based render -> parse round-trips.

For every manufacturer format: generate a random canonical record,
render it with the synth renderer, parse it back with the matching
parser, and check the load-bearing fields survive.  This is the
invariant the whole Stage II depends on.
"""

from datetime import date

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.parsing.formats import (
    BenzParser,
    BoschParser,
    DelphiParser,
    GmCruiseParser,
    NissanParser,
    TeslaParser,
    VolkswagenParser,
    WaymoParser,
)
from repro.parsing.records import DisengagementRecord
from repro.synth.reports import _ROW_RENDERERS
from repro.taxonomy import Modality

#: Narrative text: words only — no field-separator characters, which
#: real narratives never start/end with but OCR tests cover elsewhere.
_description = st.lists(
    st.text(alphabet="abcdefghijklmnopqrstuvwxyz",
            min_size=2, max_size=8),
    min_size=2, max_size=8).map(" ".join)

_dates = st.dates(min_value=date(2014, 9, 1),
                  max_value=date(2016, 11, 30))
_times = st.tuples(st.integers(0, 23), st.integers(0, 59),
                   st.integers(0, 59))
_reaction = st.one_of(
    st.none(),
    st.floats(min_value=0.1, max_value=99.0).map(
        lambda v: round(v, 2)))
_road = st.sampled_from(["highway", "city street", "freeway",
                         "interstate", "rural"])
_weather = st.sampled_from(["Sunny/Dry", "Overcast", "Raining/Wet"])
_modality_am = st.sampled_from([Modality.AUTOMATIC, Modality.MANUAL])


def _record(manufacturer, **kwargs):
    defaults = dict(manufacturer=manufacturer, month="2015-06")
    defaults.update(kwargs)
    record = DisengagementRecord(**defaults)
    if record.event_date is not None:
        record.month = (f"{record.event_date.year:04d}-"
                        f"{record.event_date.month:02d}")
    return record


def _roundtrip(parser, record):
    line = _ROW_RENDERERS[record.manufacturer](record)
    parsed = parser.parse_row(line)
    assert parsed is not None, line
    return parsed


class TestNissanRoundtrip:
    @given(event_date=_dates, time_of_day=_times,
           description=_description, road=_road, weather=_weather,
           reaction=_reaction, modality=_modality_am,
           car=st.integers(1, 9))
    @settings(max_examples=60)
    def test_fields_survive(self, event_date, time_of_day, description,
                            road, weather, reaction, modality, car):
        record = _record(
            "Nissan", event_date=event_date, time_of_day=time_of_day,
            vehicle_id=f"Leaf #{car} (Alfa)", modality=modality,
            road_type=road, weather=weather, reaction_time_s=reaction,
            description=description)
        parsed = _roundtrip(NissanParser(), record)
        assert parsed.event_date == event_date
        assert parsed.vehicle_id == record.vehicle_id
        assert parsed.modality == modality
        assert parsed.description == description
        if reaction is not None:
            assert parsed.reaction_time_s == pytest.approx(reaction)


class TestWaymoRoundtrip:
    @given(month=st.tuples(st.integers(2014, 2016),
                           st.integers(1, 12)),
           description=_description, road=_road,
           reaction=_reaction, modality=_modality_am,
           car=st.integers(1, 120))
    # A description that reads like a reaction-time field, with no
    # reaction time after it.
    @example(month=(2014, 1), description="reaction aa", road="highway",
             reaction=None, modality=Modality.AUTOMATIC, car=1)
    @example(month=(2015, 6), description="reaction hello",
             road="highway", reaction=None, modality=Modality.MANUAL,
             car=7)
    @settings(max_examples=60)
    def test_fields_survive(self, month, description, road, reaction,
                            modality, car):
        month_key = f"{month[0]:04d}-{month[1]:02d}"
        record = _record(
            "Waymo", month=month_key, vehicle_id=f"AV-{car:03d}",
            modality=modality, road_type=road,
            reaction_time_s=reaction, description=description)
        parsed = _roundtrip(WaymoParser(), record)
        assert parsed.month == month_key
        assert parsed.vehicle_id == record.vehicle_id
        assert parsed.description == description


class TestVolkswagenRoundtrip:
    @given(event_date=_dates, time_of_day=_times,
           description=_description, reaction=_reaction)
    @settings(max_examples=60)
    def test_fields_survive(self, event_date, time_of_day,
                            description, reaction):
        record = _record(
            "Volkswagen", event_date=event_date,
            time_of_day=time_of_day, modality=Modality.AUTOMATIC,
            reaction_time_s=reaction, description=description)
        parsed = _roundtrip(VolkswagenParser(), record)
        assert parsed.event_date == event_date
        assert parsed.time_of_day == time_of_day
        assert parsed.description == description


class TestBenzRoundtrip:
    @given(event_date=_dates, time_of_day=_times,
           description=_description, road=_road, weather=_weather,
           reaction=_reaction, modality=_modality_am)
    @settings(max_examples=60)
    def test_fields_survive(self, event_date, time_of_day, description,
                            road, weather, reaction, modality):
        record = _record(
            "Mercedes-Benz", event_date=event_date,
            time_of_day=time_of_day, vehicle_id="S500-1",
            modality=modality, road_type=road, weather=weather,
            reaction_time_s=reaction, description=description)
        parsed = _roundtrip(BenzParser(), record)
        assert parsed.event_date == event_date
        assert parsed.description == description
        assert parsed.modality == modality


class TestBoschRoundtrip:
    @given(event_date=_dates, description=_description, road=_road,
           weather=_weather)
    @settings(max_examples=60)
    def test_fields_survive(self, event_date, description, road,
                            weather):
        record = _record(
            "Bosch", event_date=event_date, vehicle_id="...AB123",
            modality=Modality.PLANNED, road_type=road,
            weather=weather, description=description)
        parsed = _roundtrip(BoschParser(), record)
        assert parsed.event_date == event_date
        assert parsed.modality is Modality.PLANNED
        assert parsed.description == description


class TestGmCruiseRoundtrip:
    @given(event_date=_dates, description=_description)
    @settings(max_examples=60)
    def test_fields_survive(self, event_date, description):
        record = _record(
            "GMCruise", event_date=event_date,
            modality=Modality.PLANNED, description=description)
        parsed = _roundtrip(GmCruiseParser(), record)
        assert parsed.event_date == event_date
        assert parsed.description == description


class TestDelphiRoundtrip:
    @given(event_date=_dates, time_of_day=_times,
           description=_description, road=_road, weather=_weather,
           reaction=_reaction, modality=_modality_am)
    @settings(max_examples=60)
    def test_fields_survive(self, event_date, time_of_day, description,
                            road, weather, reaction, modality):
        record = _record(
            "Delphi", event_date=event_date, time_of_day=time_of_day,
            vehicle_id="...XY987", modality=modality, road_type=road,
            weather=weather, reaction_time_s=reaction,
            description=description)
        parsed = _roundtrip(DelphiParser(), record)
        assert parsed.event_date == event_date
        assert parsed.time_of_day == time_of_day
        assert parsed.description == description
        assert parsed.modality == modality


class TestTeslaRoundtrip:
    @given(event_date=_dates, time_of_day=_times,
           description=_description, reaction=_reaction,
           modality=_modality_am)
    # A description that starts like a reaction-time field, with no
    # reaction time after it.
    @example(event_date=date(2015, 6, 1), time_of_day=(9, 14, 0),
             description="rt ab cd", reaction=None,
             modality=Modality.AUTOMATIC)
    @settings(max_examples=60)
    def test_fields_survive(self, event_date, time_of_day,
                            description, reaction, modality):
        record = _record(
            "Tesla", event_date=event_date, time_of_day=time_of_day,
            modality=modality, reaction_time_s=reaction,
            description=description)
        parsed = _roundtrip(TeslaParser(), record)
        assert parsed.event_date == event_date
        assert parsed.description == description
        assert parsed.modality == modality
