"""The piecewise database decode against the whole-text decode.

``FailureDatabase.from_json`` parses text in ``save()``'s layout one
bounded piece at a time and hands any other text, and any text one of
whose pieces fails to parse or to decode, to a single ``orjson.loads``
of the whole.  These tests pin that the two paths give the same
database or the same ``CorruptDatabaseError`` on every input, with
``DECODE_PIECE_BYTES`` shrunk so that every record boundary is cut,
and that the piecewise decode never holds the whole parse tree.
"""

from __future__ import annotations

import gc
import json
import tracemalloc
from datetime import date
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import CorruptDatabaseError
from repro.parsing.records import (
    AccidentRecord,
    DisengagementRecord,
    MonthlyMileage,
)
from repro.pipeline import store
from repro.pipeline.resilience import Quarantine, QuarantineEntry
from repro.pipeline.store import FailureDatabase
from repro.taxonomy import FaultTag, Modality

from .oracles import database_payload

#: Piece sizes that cut at every record boundary (1, 7) or at most of
#: them (64), for databases of a few records.
PIECE_SIZES = [1, 7, 64]

#: Fragments that look like the layout's own markers, escapes,
#: non-ASCII, a line separator and a non-BMP character.
_FRAGMENTS = ['},{"', '},{', '],"mileage":[', '],"quarantine":[', ']}',
              '{"accidents":[', '\\"', '\\', '"', "Fußgänger", "行人",
              "\u2028", "🚗"]
_text = st.lists(st.one_of(st.sampled_from(_FRAGMENTS),
                           st.text(max_size=6)),
                 max_size=5).map("".join)
_long_text = st.one_of(_text, st.text(min_size=80, max_size=160))
_optional_text = st.one_of(st.none(), _text)
_floats = st.floats(allow_nan=False, allow_infinity=False)
_months = st.builds("{:04d}-{:02d}".format, st.integers(2014, 2017),
                    st.integers(1, 12))
_disengagements = st.builds(
    DisengagementRecord, manufacturer=_text, month=_months,
    event_date=st.one_of(st.none(), st.dates(date(2014, 1, 1),
                                             date(2017, 12, 31))),
    time_of_day=st.one_of(st.none(), st.tuples(
        st.integers(0, 23), st.integers(0, 59), st.integers(0, 59))),
    vehicle_id=_optional_text,
    modality=st.one_of(st.none(), st.sampled_from(Modality)),
    weather=_optional_text,
    reaction_time_s=st.one_of(st.none(), _floats),
    description=_long_text,
    tag=st.one_of(st.none(), st.sampled_from(FaultTag)),
    source_line=st.one_of(st.none(), st.integers(0, 10 ** 6)))
_accidents = st.builds(
    AccidentRecord, manufacturer=_text, location=_optional_text,
    autonomous_at_collision=st.one_of(st.none(), st.booleans()),
    av_speed_mph=st.one_of(st.none(), _floats),
    injuries=st.booleans(), description=_long_text)
_mileage = st.builds(MonthlyMileage, manufacturer=_text, month=_months,
                     miles=_floats, vehicle_id=_optional_text)
_quarantine_entries = st.builds(
    QuarantineEntry, unit_id=_text, stage=_text, error_type=_text,
    message=_text, traceback=_long_text)
_databases = st.builds(
    FailureDatabase,
    disengagements=st.lists(_disengagements, max_size=4),
    accidents=st.lists(_accidents, max_size=3),
    mileage=st.lists(_mileage, max_size=3),
    quarantine=st.builds(Quarantine,
                         st.lists(_quarantine_entries, max_size=3)))


def _whole_decode(text, source=None) -> FailureDatabase:
    """``from_json`` with the piecewise path switched off."""
    with mock.patch.object(store, "_decode_pieces", return_value=None):
        return FailureDatabase.from_json(text, source=source)


def _outcome(decode, text) -> tuple:
    """What decoding ``text`` gives: the database's canonical JSON, or
    the error's message, path and reason."""
    try:
        db = decode(text, source="drop/db.json")
    except CorruptDatabaseError as exc:
        return ("error", exc.args, exc.path, exc.reason)
    return ("ok", db.to_json())


def _assert_same_outcome(text) -> None:
    whole = _outcome(_whole_decode, text)
    for size in PIECE_SIZES:
        with mock.patch.object(store, "DECODE_PIECE_BYTES", size):
            assert _outcome(FailureDatabase.from_json, text) == whole, size


def _tricky_database() -> FailureDatabase:
    """Every section non-empty, with markers inside strings; no string
    ends in ``},{``, so a saved file decodes piecewise."""
    quarantine = Quarantine()
    quarantine.add(QuarantineEntry(
        unit_id='doc-9},{"x', stage="parse", error_type="ChaosError",
        message='],"mileage":[ boom', traceback="Traceback \\ ..."))
    quarantine.add(QuarantineEntry(
        unit_id="doc-10", stage="tag", error_type="KeyError",
        message="'行人'", traceback="\u2028🚗"))
    return FailureDatabase(
        disengagements=[
            DisengagementRecord(
                manufacturer="Nissan", month="2016-03",
                event_date=date(2016, 3, 4), time_of_day=(9, 30, 0),
                modality=Modality.AUTOMATIC, tag=FaultTag.SOFTWARE,
                description='planner },{"hesitated"} ],"quarantine":[',
                reaction_time_s=0.8, source_document="doc-1",
                source_line=4),
            DisengagementRecord(
                manufacturer="Waymo", month="2016-04",
                description="Fußgänger — 行人 \"q\" 🚗 " * 8)],
        accidents=[
            AccidentRecord(
                manufacturer="Nissan", month="2016-04",
                description='rear-ended {"accidents":[ at a light',
                av_speed_mph=0.0, other_speed_mph=8.0),
            AccidentRecord(manufacturer="Waymo", injuries=True)],
        mileage=[
            MonthlyMileage("Nissan", "2016-03", 512.5, "n1"),
            MonthlyMileage("Waymo", "2016-04", 2.5e-05, None)],
        quarantine=quarantine,
    )


class TestDecodesLikeTheWholeText:
    @pytest.mark.parametrize("size", PIECE_SIZES)
    @given(db=_databases)
    @settings(max_examples=100, deadline=None)
    def test_any_database(self, size, db):
        text = db.to_json()
        whole = _whole_decode(text)
        assert whole == db
        with mock.patch.object(store, "DECODE_PIECE_BYTES", size):
            for data in (text, text.encode()):
                loaded = FailureDatabase.from_json(data)
                assert loaded == whole
                assert loaded.quarantine.entries == db.quarantine.entries
                assert loaded.fingerprint() == whole.fingerprint()

    @pytest.mark.parametrize("size", [*PIECE_SIZES, None])
    @pytest.mark.parametrize("with_quarantine", [False, True])
    def test_saved_files_decode_piecewise(self, tmp_path, size,
                                          with_quarantine):
        db = _tricky_database()
        if not with_quarantine:
            db.quarantine = Quarantine()
        path = tmp_path / "db.json"
        db.save(path)
        data = path.read_bytes()
        with mock.patch.object(store, "DECODE_PIECE_BYTES",
                               size or store.DECODE_PIECE_BYTES):
            sections = store._decode_pieces(data)
            assert sections is not None
            assert sections == [db.accidents, db.disengagements,
                                db.mileage, db.quarantine.entries]
            loaded = FailureDatabase.load(path)
        assert loaded == db
        assert loaded.fingerprint() == db.fingerprint()

    def test_session_database_decodes_piecewise(self, db, tmp_path):
        path = tmp_path / "db.json"
        db.save(path)
        data = path.read_bytes()
        sections = store._decode_pieces(data)
        assert sections == [db.accidents, db.disengagements, db.mileage,
                            []]
        assert FailureDatabase.from_json(data).fingerprint() == (
            db.fingerprint())

    def test_empty_sections(self):
        for db in (FailureDatabase(), FailureDatabase(
                quarantine=Quarantine([QuarantineEntry(
                    "doc-1", "parse", "E", "m", "t")]))):
            text = db.to_json()
            assert store._decode_pieces(text) is not None
            _assert_same_outcome(text)

    def test_string_ending_in_a_cut_marker_falls_back(self):
        # `"x},{"` puts a literal `},{"` at a string's closing quote:
        # the cut there leaves an open string, so that piece does not
        # parse and the whole text is decoded instead.
        db = _tricky_database()
        db.disengagements[0].description = "x},{"
        text = db.to_json()
        with mock.patch.object(store, "DECODE_PIECE_BYTES", 1):
            assert store._decode_pieces(text) is None
            assert FailureDatabase.from_json(text) == db


def _fake_opener_text(with_quarantine: bool, section: str,
                      key: str) -> tuple[FailureDatabase, bytes]:
    """The tricky database, and its text with ``],"<key>":[`` as
    structure inside the first record of ``section``: a list-valued
    key, then a ``key`` key."""
    db = _tricky_database()
    if not with_quarantine:
        db.quarantine = Quarantine()
    data = db.to_json().encode()
    opener = f'"{section}":[{{'.encode()
    assert data.count(opener) == 1
    return db, data.replace(opener, opener + b'"fake":[],"'
                            + key.encode() + b'":[1],')


def _lenient(from_dict):
    """``from_dict`` that drops the keys :func:`_fake_opener_text`
    adds, so the records around a fake opener decode."""
    return lambda data: from_dict({
        name: value for name, value in data.items()
        if name not in ("fake", "mileage", "quarantine")})


#: Where a fake opener goes: whether the file has a quarantine
#: section, the section whose first record holds the fake, its key.
_FAKES = [(with_quarantine, section, key)
          for with_quarantine in (False, True)
          for section in ["accidents", "disengagements", "mileage",
                          "quarantine"][:3 + with_quarantine]
          for key in ("mileage", "quarantine")]

#: Whether the sections are still found with the fake in place.  The
#: mileage opener is the last in the text, so a fake before the real
#: one is passed over and one after it is found; the quarantine
#: opener is the first after the mileage opener.
_FOUND = {
    ("mileage", "accidents"): True,
    ("mileage", "disengagements"): True,
    ("mileage", "mileage"): False,
    ("mileage", "quarantine"): False,
    ("quarantine", "accidents"): True,
    ("quarantine", "disengagements"): True,
    ("quarantine", "mileage"): False,
    ("quarantine", "quarantine"): True,
}


class TestFakeOpeners:
    """A section opener's bytes inside a record, where no encoder puts
    them: the search for the section boundaries must not be misled
    into a decode that differs from the whole text's."""

    @pytest.mark.parametrize("with_quarantine,section,key", _FAKES)
    def test_decodes_like_the_whole_text(self, with_quarantine, section,
                                         key):
        _, text = _fake_opener_text(with_quarantine, section, key)
        _assert_same_outcome(text)

    @pytest.mark.parametrize("with_quarantine,section,key", _FAKES)
    def test_boundaries_found(self, with_quarantine, section, key):
        db, text = _fake_opener_text(with_quarantine, section, key)
        decoders = tuple(map(_lenient, store._SECTION_DECODERS))
        for size in PIECE_SIZES:
            with mock.patch.object(store, "DECODE_PIECE_BYTES", size), \
                    mock.patch.object(store, "_SECTION_DECODERS",
                                      decoders):
                sections = store._decode_pieces(text)
            if not _FOUND[key, section]:
                assert sections is None, size
                continue
            assert sections == [db.accidents, db.disengagements,
                                db.mileage, db.quarantine.entries], size


class TestOtherLayouts:
    @pytest.mark.parametrize("dumps", [
        lambda payload: json.dumps(payload),
        lambda payload: json.dumps(payload, indent=1),
        lambda payload: json.dumps(payload, sort_keys=True),
        lambda payload: json.dumps(payload, sort_keys=True,
                                   ensure_ascii=False),
    ], ids=["stdlib", "indented", "sorted", "sorted-utf8"])
    def test_stdlib_layouts_load(self, tmp_path, dumps):
        db = _tricky_database()
        text = dumps(database_payload(db))
        path = tmp_path / "db.json"
        path.write_text(text, encoding="utf-8")
        assert FailureDatabase.load(path) == db
        _assert_same_outcome(text)
        _assert_same_outcome(text.encode())


class TestFailsLikeTheWholeText:
    """Inputs that must raise the whole decode's exact error."""

    @pytest.fixture(scope="class")
    def data(self) -> bytes:
        return _tricky_database().to_json().encode()

    def test_every_truncation(self, data):
        for length in range(len(data)):
            _assert_same_outcome(data[:length])

    def test_byte_deleted_at_and_next_to_every_cut(self, data):
        cuts = [i for i in range(len(data)) if data.startswith(b'},{"', i)]
        assert len(cuts) == 4  # between the two records of each section
        for cut in cuts:
            for at in range(cut - 1, cut + 5):
                _assert_same_outcome(data[:at] + data[at + 1:])

    @pytest.mark.parametrize("mask", [0x01, 0x20, 0x80])
    def test_every_flipped_byte(self, data, mask):
        for position in range(len(data)):
            flipped = bytearray(data)
            flipped[position] ^= mask
            _assert_same_outcome(bytes(flipped))

    @pytest.mark.parametrize("bad", [
        b"\xff", b"\xc3", b"\xe8\xa1", b"\xc0\xaf", b"\xed\xa0\x80",
    ], ids=["ff", "lone-lead", "short-3-byte", "overlong", "surrogate"])
    def test_invalid_utf8(self, data, bad):
        at = data.index(b"planner")
        _assert_same_outcome(data[:at] + bad + data[at:])
        with pytest.raises(CorruptDatabaseError) as info:
            FailureDatabase.from_json(data[:at] + bad + data[at:])
        assert "invalid JSON" in info.value.reason

    @pytest.mark.parametrize("token", [b"NaN", b"Infinity", b"-Infinity"])
    def test_non_json_number_tokens(self, data, token):
        text = data.replace(b'"miles":512.5', b'"miles":' + token)
        assert text != data
        _assert_same_outcome(text)
        with pytest.raises(CorruptDatabaseError):
            FailureDatabase.from_json(text)

    def test_reordered_and_duplicated_sections(self, data):
        payload = json.loads(data)
        separators = (",", ":")
        variants = [
            {key: payload[key] for key in
             ("accidents", "mileage", "disengagements", "quarantine")},
            {key: payload[key] for key in
             ("disengagements", "accidents", "mileage", "quarantine")},
            {key: payload[key] for key in
             ("accidents", "disengagements", "mileage")},
        ]
        texts = [json.dumps(v, separators=separators,
                            ensure_ascii=False).encode()
                 for v in variants]
        mileage = json.dumps(payload["mileage"][:1],
                             separators=separators).encode()
        texts += [
            data[:-2] + b'],"mileage":' + mileage[:-1] + b"]}",
            data.replace(b'],"mileage":[', b'],"mileage":[],"mileage":[',
                         1),
            data.replace(b'{"accidents":[', b'{"accidents":[],'
                         b'"accidents":[', 1),
            data.replace(b'],"quarantine":[', b'],"quarantine":[],'
                         b'"quarantine":[', 1),
            data.replace(b'],"disengagements":[', b'],"x":1,'
                         b'"disengagements":[', 1),
        ]
        for text in texts:
            _assert_same_outcome(text)

    @pytest.mark.parametrize("tail", [b"\n", b" ", b"x", b"]}", b"{}"])
    def test_trailing_bytes(self, data, tail):
        _assert_same_outcome(data + tail)
        _assert_same_outcome(b" " + data)

    @pytest.mark.parametrize("edit", [
        (b'"manufacturer":"Waymo",', b""),
        (b'"tag":"Software"', b'"tag":"Hardware?"'),
        (b'"event_date":"2016-03-04"', b'"event_date":"2016-02-30"'),
        (b'{"accidents":[', b'{"accidents":[17,'),
        (b'],"quarantine":[', b'],"quarantine":[[],'),
    ], ids=["missing-field", "unknown-enum", "bad-date", "number",
            "list-entry"])
    def test_record_that_does_not_decode(self, data, edit):
        old, new = edit
        assert old in data
        text = data.replace(old, new, 1)
        _assert_same_outcome(text)
        with pytest.raises(CorruptDatabaseError) as info:
            FailureDatabase.from_json(text)
        assert "entry" in info.value.reason

    def test_lone_surrogate_str(self, data):
        text = data.decode().replace("Waymo", "Way\ud800mo", 1)
        _assert_same_outcome(text)
        with pytest.raises(CorruptDatabaseError) as info:
            FailureDatabase.from_json(text, source="drop/db.json")
        assert info.value.path == "drop/db.json"


class TestBoundedPeak:
    """The decode's transient memory stays far below the parse tree."""

    @pytest.mark.parametrize("with_quarantine", [False, True])
    def test_peak_stays_near_the_database(self, db, tmp_path,
                                          with_quarantine):
        quarantine = Quarantine()
        if with_quarantine:
            for i in range(500):
                quarantine.add(QuarantineEntry(
                    f"doc-{i}", "parse", "ChaosError", f"boom {i}",
                    "Traceback (most recent call last):\n" * 6))
        saved = FailureDatabase(
            disengagements=db.disengagements, accidents=db.accidents,
            mileage=db.mileage, quarantine=quarantine)
        path = tmp_path / "db.json"
        saved.save(path)
        data = path.read_bytes()
        gc.collect()
        tracemalloc.start()
        try:
            loaded = FailureDatabase.from_json(data)
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # The whole-text decode peaks about 5.3 MB above the database
        # it returns: the parse tree of the whole file.
        assert peak - held < 1_000_000, (peak - held, held)
        assert len(loaded.quarantine) == len(quarantine)
        assert loaded.fingerprint() == saved.fingerprint()
