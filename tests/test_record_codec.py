"""Record decoding returns what the keyword-argument reference returns.

``from_dict`` reads a dict holding exactly the record's fields by
position, and converts dates, time tuples and enum values inline. For
any dict it must return what the ``*_from_dict_reference`` functions
in :mod:`tests.oracles` return (``cls(**kwargs)`` after converting
each truthy field), or raise the same exception.  Every record of the
seed-2018 database and of a checkpoint directory must decode equal to
the reference, and the tag journal's decoder must agree with
``Enum(value)``.
"""

from __future__ import annotations

from dataclasses import fields
from datetime import date

import orjson
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.parsing.records import (
    AccidentRecord,
    DisengagementRecord,
    MonthlyMileage,
)
from repro.pipeline import PipelineConfig, process_corpus
from repro.pipeline.checkpoint import journal_entries
from repro.pipeline.runner import _decode_tag
from repro.synth import generate_corpus
from repro.taxonomy import FailureCategory, FaultTag, Modality

from .oracles import (
    accident_from_dict_reference,
    disengagement_from_dict_reference,
    mileage_from_dict_reference,
)

REFERENCES = {
    DisengagementRecord: disengagement_from_dict_reference,
    AccidentRecord: accident_from_dict_reference,
    MonthlyMileage: mileage_from_dict_reference,
}


def _outcome(decode, data):
    """The record's fields with their types, or the exception's type and
    message."""
    try:
        record = decode(data)
    except Exception as error:  # noqa: BLE001 - compared by type
        return "raises", type(error), str(error)
    return "ok", type(record), [(name, type(value), value)
                                for name, value in vars(record).items()]


def _assert_decodes_as_reference(record_cls, data):
    expected = _outcome(REFERENCES[record_cls], data)
    assert _outcome(record_cls.from_dict, data) == expected
    return expected


# ----------------------------------------------------------------------
# Drawn dicts.
# ----------------------------------------------------------------------

_values = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 70),
    st.floats(allow_nan=False), st.text(max_size=6),
    st.sampled_from(["", [], {}, 0, False]),
    st.lists(st.integers(0, 59), max_size=4),
    st.lists(st.integers(0, 59), max_size=4).map(tuple))


def _enum_values(enum_cls) -> st.SearchStrategy:
    return st.one_of(st.sampled_from([member.value for member in enum_cls]),
                     st.none(), _values)


_iso_dates = st.one_of(
    st.dates().map(date.isoformat), st.none(),
    st.dates().map(lambda day: day.strftime("%Y%m%d")),
    st.dates().map(lambda day: "%04d-W%02d-%d" % day.isocalendar()),
    st.text(alphabet="0123456789-W", max_size=11),
    _values)

_times = st.one_of(
    st.lists(st.integers(0, 59), min_size=3, max_size=3),
    st.lists(st.integers(0, 59), min_size=3, max_size=3).map(tuple),
    _values)

_FIELD_VALUES = {
    "event_date": _iso_dates,
    "time_of_day": _times,
    "modality": _enum_values(Modality),
    "tag": _enum_values(FaultTag),
    "category": _enum_values(FailureCategory),
    "truth_tag": _enum_values(FaultTag),
}


@st.composite
def _record_dicts(draw, record_cls) -> dict:
    """A dict of ``record_cls``'s fields in any order, perhaps with
    some missing or extra keys, each value drawn for its field."""
    names = [item.name for item in fields(record_cls)]
    data = {name: draw(_FIELD_VALUES.get(name, _values)) for name in names}
    shape = draw(st.sampled_from(["exact", "missing", "extra", "both"]))
    if shape in ("missing", "both"):
        for name in draw(st.lists(st.sampled_from(names), min_size=1,
                                  unique=True)):
            del data[name]
    if shape in ("extra", "both"):
        data.update(draw(st.dictionaries(
            st.text(max_size=12), _values, min_size=1, max_size=2)))
    return dict(draw(st.permutations(list(data.items()))))


@pytest.mark.parametrize("record_cls", list(REFERENCES),
                         ids=lambda cls: cls.__name__)
@given(data=st.data())
@settings(max_examples=300, deadline=None)
def test_any_dict_decodes_as_reference(record_cls, data):
    _assert_decodes_as_reference(
        record_cls, data.draw(_record_dicts(record_cls)))


# ----------------------------------------------------------------------
# Named shapes.
# ----------------------------------------------------------------------

_DROP = object()


def _edited(record, **changes) -> dict:
    """``record`` as the encoders write it, with ``changes`` applied
    (``_DROP`` deletes a key)."""
    data = orjson.loads(orjson.dumps(vars(record)))
    for key, value in changes.items():
        if value is _DROP:
            del data[key]
        else:
            data[key] = value
    return data


_DISENGAGEMENT = DisengagementRecord(
    "Waymo", "2017-01", date(2017, 1, 5), (13, 48, 0), "AV-017",
    Modality.MANUAL, "highway", "clear", 0.83, "lidar dropout",
    FaultTag.SENSOR, FailureCategory.SYSTEM, FaultTag.SENSOR,
    "Waymo-2016-2017-disengagements", 41)
_ACCIDENT = AccidentRecord(
    "GMCruise", date(2017, 3, 2), "2017-03", "Valencia St", True, False,
    4.0, 12.5, "rear-end", False, True, None, "rear-ended at a light",
    "GMCruise-accident-3")
_MILEAGE = MonthlyMileage("Waymo", "2017-01", 1520.5, "AV-017")

NAMED_CASES = {
    "exact": (DisengagementRecord, _edited(_DISENGAGEMENT)),
    "optional-missing": (DisengagementRecord, _edited(
        _DISENGAGEMENT, truth_tag=_DROP, source_line=_DROP,
        event_date=_DROP)),
    "manufacturer-missing": (DisengagementRecord, _edited(
        _DISENGAGEMENT, manufacturer=_DROP)),
    "extra-key": (DisengagementRecord, _edited(_DISENGAGEMENT, speed=3)),
    "swapped-key": (DisengagementRecord, _edited(
        _DISENGAGEMENT, weather=_DROP, climate="dry")),
    "empty-values": (DisengagementRecord, _edited(
        _DISENGAGEMENT, event_date="", time_of_day=[], modality=None,
        tag="", category=[], truth_tag={})),
    "unknown-tag": (DisengagementRecord, _edited(
        _DISENGAGEMENT, tag="Gremlins")),
    "unknown-modality": (DisengagementRecord, _edited(
        _DISENGAGEMENT, modality="Telepathic")),
    "unhashable-category": (DisengagementRecord, _edited(
        _DISENGAGEMENT, category=["System"])),
    "basic-iso-date": (DisengagementRecord, _edited(
        _DISENGAGEMENT, event_date="20170105")),
    "iso-week-date": (DisengagementRecord, _edited(
        _DISENGAGEMENT, event_date="2017-W01-1")),
    "bad-date": (DisengagementRecord, _edited(
        _DISENGAGEMENT, event_date="2017-13-01")),
    "date-and-tag-bad": (DisengagementRecord, _edited(
        _DISENGAGEMENT, event_date="someday", tag="Gremlins")),
    "time-tuple": (DisengagementRecord, _edited(
        _DISENGAGEMENT, time_of_day=(13, 48, 0))),
    "time-number": (DisengagementRecord, _edited(
        _DISENGAGEMENT, time_of_day=1348)),
    "pairs-not-dict": (DisengagementRecord, [
        ["manufacturer", "Waymo"], ["month", "2017-01"]]),
    "string-not-dict": (DisengagementRecord, "Waymo"),
    "null-not-dict": (DisengagementRecord, None),
    "accident-exact": (AccidentRecord, _edited(_ACCIDENT)),
    "accident-basic-iso-date": (AccidentRecord, _edited(
        _ACCIDENT, event_date="20170302")),
    "accident-bad-date": (AccidentRecord, _edited(
        _ACCIDENT, event_date=20170302)),
    "accident-optional-missing": (AccidentRecord, _edited(
        _ACCIDENT, location=_DROP, redacted=_DROP)),
    "accident-extra-key": (AccidentRecord, _edited(_ACCIDENT, fault=1)),
    "mileage-exact": (MonthlyMileage, _edited(_MILEAGE)),
    "mileage-vehicle-missing": (MonthlyMileage, _edited(
        _MILEAGE, vehicle_id=_DROP)),
    "mileage-swapped-key": (MonthlyMileage, _edited(
        _MILEAGE, vehicle_id=_DROP, vin="5YJ")),
    "mileage-pairs-not-dict": (MonthlyMileage, [["manufacturer", "x"]]),
    "mileage-number-not-dict": (MonthlyMileage, 7),
}


@pytest.mark.parametrize("record_cls,data", list(NAMED_CASES.values()),
                         ids=list(NAMED_CASES))
def test_named_shape_decodes_as_reference(record_cls, data):
    _assert_decodes_as_reference(record_cls, data)


def test_encoded_records_round_trip():
    for record in (_DISENGAGEMENT, _ACCIDENT, _MILEAGE):
        assert type(record).from_dict(_edited(record)) == record


# ----------------------------------------------------------------------
# Real databases and journals.
# ----------------------------------------------------------------------

_SECTIONS = (("disengagements", DisengagementRecord),
             ("accidents", AccidentRecord),
             ("mileage", MonthlyMileage))


def test_every_seed2018_record_decodes_as_reference(db):
    payload = orjson.loads(db.to_json())
    for key, record_cls in _SECTIONS:
        for entry, record in zip(payload[key], getattr(db, key),
                                 strict=True):
            assert _assert_decodes_as_reference(record_cls, entry)[0] == "ok"
            assert record_cls.from_dict(entry) == record


@pytest.fixture(scope="module")
def checkpoint_dir(tmp_path_factory):
    """A checkpoint directory of a full seed-5 run."""
    directory = tmp_path_factory.mktemp("checkpoint")
    process_corpus(generate_corpus(seed=5), PipelineConfig(
        seed=5, ocr_enabled=False, checkpoint_dir=directory))
    return directory


def _bodies(path):
    """Every journal body of ``path`` (each line is intact here)."""
    entries = list(journal_entries(path))
    assert None not in entries
    return [body for _unit, body in entries]


def test_every_journaled_record_decodes_as_reference(checkpoint_dir):
    entries = [(AccidentRecord, body["accident"])
               for body in _bodies(checkpoint_dir / "accidents.jsonl")]
    for body in _bodies(checkpoint_dir / "documents.jsonl"):
        entries += [(DisengagementRecord, entry)
                    for entry in body["disengagements"]]
        entries += [(MonthlyMileage, entry) for entry in body["mileage"]]
    assert {record_cls for record_cls, _ in entries} == set(REFERENCES)
    for record_cls, entry in entries:
        assert _assert_decodes_as_reference(record_cls, entry)[0] == "ok"


def test_tag_journal_decodes_as_enum_call(checkpoint_dir):
    tags = _bodies(checkpoint_dir / "tags.jsonl")
    assert tags
    for body in tags:
        assert _decode_tag(body) == (FaultTag(body["tag"]),
                                     FailureCategory(body["category"]))
