"""Tests for pipeline configuration, the failure database store, and
the end-to-end runner."""

import dataclasses
import gc
import hashlib
import tempfile
from datetime import date
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import CorruptDatabaseError
from repro.parsing.records import (
    AccidentRecord,
    DisengagementRecord,
    MonthlyMileage,
)
from repro.pipeline.checkpoint import canonical_json, sha256_text
from repro.pipeline.config import PipelineConfig
from repro.pipeline.resilience import Quarantine, QuarantineEntry
from repro.pipeline.runner import process_corpus, run_pipeline
from repro.pipeline.store import FailureDatabase
from repro.query.engine import QueryEngine
from repro.query.index import DatabaseIndex
from repro.synth.dataset import generate_corpus
from repro.taxonomy import FaultTag, Modality

from .oracles import database_payload, record_loop_fingerprint


class TestConfig:
    def test_defaults(self):
        config = PipelineConfig()
        assert config.ocr_enabled
        assert config.correction_enabled
        assert config.dictionary_mode == "expanded"
        assert not config.drop_planned

    def test_invalid_dictionary_mode(self):
        with pytest.raises(ValueError):
            PipelineConfig(dictionary_mode="telepathy")


class TestStore:
    def test_grouping_helpers(self, db):
        grouped = db.disengagements_by_manufacturer()
        assert sum(len(v) for v in grouped.values()) == \
            len(db.disengagements)
        miles = db.miles_by_manufacturer()
        assert sum(miles.values()) == pytest.approx(db.total_miles)

    def test_monthly_views_consistent(self, db):
        total = sum(db.monthly_miles("Waymo").values())
        assert total == pytest.approx(
            db.miles_by_manufacturer()["Waymo"])
        events = sum(db.monthly_disengagements("Waymo").values())
        assert events == len(
            db.disengagements_by_manufacturer()["Waymo"])

    def test_vehicle_views(self, db):
        vehicle_miles = db.vehicle_miles("Nissan")
        assert vehicle_miles
        assert all(m > 0 for m in vehicle_miles.values())

    def test_reaction_time_filters(self, db):
        all_times = db.reaction_times()
        waymo_times = db.reaction_times("Waymo")
        assert len(waymo_times) < len(all_times)
        assert all(t > 0 for t in all_times)

    def test_json_roundtrip(self, db):
        clone = FailureDatabase.from_json(db.to_json())
        assert len(clone.disengagements) == len(db.disengagements)
        assert len(clone.accidents) == len(db.accidents)
        assert clone.total_miles == pytest.approx(db.total_miles)
        original = db.disengagements[0]
        restored = clone.disengagements[0]
        assert restored.manufacturer == original.manufacturer
        assert restored.tag == original.tag
        assert restored.modality == original.modality
        assert restored.event_date == original.event_date

    def test_save_load(self, db, tmp_path):
        path = tmp_path / "database.json"
        db.save(path)
        clone = FailureDatabase.load(path)
        assert len(clone.disengagements) == len(db.disengagements)


class TestRunner:
    def test_full_run_recovers_most_records(self, corpus,
                                            pipeline_result):
        db = pipeline_result.database
        truth = len(corpus.truth_disengagements())
        assert len(db.disengagements) >= 0.98 * truth
        assert len(db.accidents) == 42

    def test_all_records_tagged(self, db):
        assert all(r.tag is not None for r in db.disengagements)
        assert all(r.category is not None for r in db.disengagements)

    def test_tagging_accuracy_high(self, pipeline_result):
        report = pipeline_result.diagnostics.tagging
        assert report is not None
        assert report.tag_accuracy > 0.95
        assert report.category_accuracy > 0.95

    def test_diagnostics_populated(self, pipeline_result):
        diagnostics = pipeline_result.diagnostics
        assert diagnostics.ocr.documents > 0
        assert diagnostics.ocr.mean_confidence > 0.9
        assert diagnostics.parse.disengagements_parsed > 5000
        assert diagnostics.dictionary_entries > 100
        assert diagnostics.filters.planned_annotated > 2000

    def test_ocr_disabled_is_lossless(self):
        corpus = generate_corpus(seed=5, manufacturers=["Nissan"])
        config = PipelineConfig(seed=5, ocr_enabled=False)
        result = process_corpus(corpus, config)
        assert len(result.database.disengagements) == 135
        assert result.database.total_miles == pytest.approx(
            5584.4, rel=1e-3)

    def test_seed_dictionary_mode(self):
        corpus = generate_corpus(seed=5, manufacturers=["Nissan"])
        config = PipelineConfig(seed=5, ocr_enabled=False,
                                dictionary_mode="seed")
        result = process_corpus(corpus, config)
        assert result.diagnostics.tagging.tag_accuracy > 0.9

    def test_drop_planned_removes_bosch(self):
        corpus = generate_corpus(seed=5, manufacturers=["Bosch"])
        config = PipelineConfig(seed=5, ocr_enabled=False,
                                drop_planned=True)
        result = process_corpus(corpus, config)
        assert result.database.disengagements == []

    def test_truth_attachment_alignment(self, db):
        # Every record with truth must have been matched by line, and
        # the narrative-based tag should usually agree.
        with_truth = [r for r in db.disengagements
                      if r.truth_tag is not None]
        assert len(with_truth) >= 0.99 * len(db.disengagements)

    def test_run_pipeline_wrapper(self):
        result = run_pipeline(PipelineConfig(
            seed=11, manufacturers=["Tesla"]))
        db = result.database
        assert set(db.manufacturers()) == {"Tesla"}
        assert len(db.disengagements) >= 175  # 182 minus OCR residue
        unknown = sum(1 for r in db.disengagements
                      if r.tag is FaultTag.UNKNOWN)
        assert unknown / len(db.disengagements) > 0.9

    def test_modalities_preserved_through_pipeline(self, db):
        bosch = db.disengagements_by_manufacturer()["Bosch"]
        assert all(r.modality is Modality.PLANNED for r in bosch)


def _fresh_database() -> FailureDatabase:
    """A small database each test may mutate."""
    return FailureDatabase(
        disengagements=[DisengagementRecord(
            manufacturer="Waymo", month="2016-03", vehicle_id="AV-017",
            weather="clear", description="perception failure near merge",
            tag=FaultTag.SOFTWARE)],
        mileage=[MonthlyMileage("Waymo", "2016-03", 1234.5, "AV-017")])


def _payload_fingerprint(db: FailureDatabase) -> str:
    """The fingerprint's definition: sha256 of the canonical payload."""
    return sha256_text(canonical_json(database_payload(db)))


class TestFingerprintMemo:
    def test_cached_between_calls(self, monkeypatch):
        db = _fresh_database()
        first = db.fingerprint()
        monkeypatch.setattr(
            "repro.pipeline.store.canonical_bytes",
            lambda obj: pytest.fail(
                "memoized fingerprint re-encoded a record"))
        assert db.fingerprint() == first

    def test_save_seeds_the_memo(self, monkeypatch, tmp_path):
        db = _fresh_database()
        db.save(tmp_path / "db.json")
        monkeypatch.setattr(
            "repro.pipeline.store.canonical_bytes",
            lambda obj: pytest.fail("fingerprint re-encoded after save"))
        assert db.fingerprint() == _payload_fingerprint(db)

    def test_append_invalidates(self):
        db = _fresh_database()
        before = db.fingerprint()
        db.mileage.append(MonthlyMileage("Zoox", "2017-01", 5.0))
        assert db.fingerprint() != before

    @pytest.mark.parametrize("section, record", [
        ("disengagements", DisengagementRecord("Zoox", "2017-01")),
        ("accidents", AccidentRecord("Zoox", description="rear-end")),
        ("mileage", MonthlyMileage("Zoox", "2017-01", 5.0)),
        ("quarantine", QuarantineEntry(
            "doc-1", "parse", "ValueError", "bad row", "Traceback")),
    ])
    def test_append_to_any_section_invalidates(self, section, record):
        db = _fresh_database()
        before = db.fingerprint()
        target = getattr(db, section)
        (target.add if section == "quarantine" else target.append)(record)
        after = db.fingerprint()
        assert after != before
        assert after == _payload_fingerprint(db)

    def test_touch_invalidates_in_place_edit(self):
        db = _fresh_database()
        before = db.fingerprint()
        db.disengagements[0].weather = "fog"
        db = dataclasses.replace(db)
        after = db.fingerprint()
        assert after != before
        assert after == _payload_fingerprint(db)


_text = st.text(max_size=24)
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
    description=_text,
    tag=st.one_of(st.none(), st.sampled_from(FaultTag)),
    source_line=st.one_of(st.none(), st.integers(0, 10 ** 6)))
_accidents = st.builds(
    AccidentRecord, manufacturer=_text, location=_optional_text,
    autonomous_at_collision=st.one_of(st.none(), st.booleans()),
    av_speed_mph=st.one_of(st.none(), _floats),
    injuries=st.booleans(), description=_text)
_mileage = st.builds(MonthlyMileage, manufacturer=_text, month=_months,
                     miles=_floats, vehicle_id=_optional_text)
_quarantine_entries = st.builds(
    QuarantineEntry, unit_id=_text, stage=_text, error_type=_text,
    message=_text, traceback=_text)
_databases = st.builds(
    FailureDatabase,
    disengagements=st.lists(_disengagements, max_size=4),
    accidents=st.lists(_accidents, max_size=3),
    mileage=st.lists(_mileage, max_size=3),
    quarantine=st.builds(Quarantine,
                         st.lists(_quarantine_entries, max_size=2)))


class TestStreamedFingerprint:
    """The streamed fingerprint equals the hash of the whole payload."""

    def test_empty(self):
        db = FailureDatabase()
        assert db.fingerprint() == _payload_fingerprint(db)

    def test_small_database(self):
        corpus = generate_corpus(seed=5, manufacturers=["Nissan"])
        db = process_corpus(corpus, PipelineConfig(
            seed=5, ocr_enabled=False, dictionary_mode="seed")).database
        assert db.disengagements and db.mileage
        assert db.fingerprint() == _payload_fingerprint(db)
        assert db.fingerprint() == record_loop_fingerprint(db)

    def test_quarantine_entries(self):
        db = _fresh_database()
        db.quarantine.add(QuarantineEntry(
            "doc-7", "parse", "ValueError", "bad row", "Traceback ..."))
        db.quarantine.add(QuarantineEntry(
            "doc-9", "tag", "KeyError", "'x'", ""))
        assert db.fingerprint() == _payload_fingerprint(db)

    def test_non_ascii_descriptions(self):
        db = _fresh_database()
        db.disengagements[0].description = "Fußgänger — 行人 \u2028 \"q\" 🚗"
        db.accidents.append(AccidentRecord(
            "Waymo", location="Straße & Ave", description="ünïcode\n"))
        db = dataclasses.replace(db)
        assert db.fingerprint() == _payload_fingerprint(db)

    @given(db=_databases)
    @settings(max_examples=200, deadline=None)
    def test_any_database(self, db):
        expected = _payload_fingerprint(db)
        assert db.fingerprint() == expected
        assert db.to_json() == canonical_json(database_payload(db))
        with tempfile.TemporaryDirectory() as scratch:
            path = Path(scratch) / "db.json"
            db.save(path)
            # The saved file is the canonical encoding: its sha256 is
            # the fingerprint, and so is the sidecar's digest.
            assert hashlib.sha256(path.read_bytes()).hexdigest() == expected
            sidecar = path.with_name("db.json.sha256").read_text()
            assert sidecar == f"{expected}  db.json\n"
            loaded = FailureDatabase.load(path)
        assert loaded == db
        assert loaded.fingerprint() == expected

    def test_tiny_float_pin(self):
        # orjson prints 2.5e-05 as 0.000025, where the stdlib encoder
        # wrote 2.5e-05 and so gave this database a second fingerprint.
        db = FailureDatabase(mileage=[
            MonthlyMileage("Waymo", "2016-03", 2.5e-05, "AV-017")])
        assert '"miles":0.000025' in db.to_json()
        assert db.fingerprint() == (
            "3b90c99133942bb375531384e8aa740b"
            "c2d23364edf6b66ae42edf2e0791b860")


class TestCollectorPause:
    """Decoding and indexing run with the cyclic collector paused."""

    @pytest.fixture(autouse=True)
    def restore_collector(self):
        enabled = gc.isenabled()
        yield
        (gc.enable if enabled else gc.disable)()

    def test_serve_setup_runs_no_collection(self, db, tmp_path):
        path = tmp_path / "db.json"
        db.save(path)
        started = []

        def probe(phase, info):
            if phase == "start":
                started.append(info["generation"])

        gc.collect()
        gc.callbacks.append(probe)
        try:
            engine = QueryEngine(FailureDatabase.load(path))
        finally:
            gc.callbacks.remove(probe)
        assert started == []
        assert engine.fingerprint == db.fingerprint()

    @pytest.mark.parametrize("enabled", [True, False],
                             ids=["enabled", "disabled"])
    def test_collector_state_restored(self, small_db, enabled):
        (gc.enable if enabled else gc.disable)()
        loaded = FailureDatabase.from_json(small_db.to_json())
        assert (gc.isenabled(), gc.get_freeze_count()) == (enabled, 0)
        DatabaseIndex.build(loaded)
        assert (gc.isenabled(), gc.get_freeze_count()) == (enabled, 0)

    def test_objects_frozen_by_the_caller_stay_frozen(self, small_db):
        text = small_db.to_json()
        gc.freeze()
        try:
            frozen = gc.get_freeze_count()
            DatabaseIndex.build(FailureDatabase.from_json(text))
            assert gc.get_freeze_count() == frozen
        finally:
            gc.unfreeze()

    @pytest.mark.parametrize("enabled", [True, False],
                             ids=["enabled", "disabled"])
    def test_collector_state_restored_after_an_error(self, small_db,
                                                     enabled):
        (gc.enable if enabled else gc.disable)()
        # The first Volkswagen record, decoded after the Nissan ones,
        # lacks a required field.
        text = small_db.to_json().replace(
            '"manufacturer":"Volkswagen",', "", 1)
        with pytest.raises(CorruptDatabaseError):
            FailureDatabase.from_json(text)
        assert (gc.isenabled(), gc.get_freeze_count()) == (enabled, 0)
        broken = FailureDatabase(disengagements=[
            *small_db.disengagements[:3], None])
        with pytest.raises(AttributeError):
            DatabaseIndex.build(broken)
        assert (gc.isenabled(), gc.get_freeze_count()) == (enabled, 0)
