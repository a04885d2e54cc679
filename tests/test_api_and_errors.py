"""Tests for the public API surface and the exception hierarchy."""

import struct

import pytest

import repro
from repro.errors import (
    AnalysisError,
    CalibrationError,
    CorruptDatabaseError,
    DegradedModeWarning,
    FieldCoercionError,
    InsufficientDataError,
    OcrError,
    ParseError,
    PipelineError,
    QuarantinedError,
    ReproError,
    StpaError,
    SynthesisError,
    UnknownFormatError,
)


class TestPublicApi:
    def test_version(self):
        assert repro.__version__ == "1.0.0"


class TestErrorHierarchy:
    @pytest.mark.parametrize("exc", [
        CalibrationError, SynthesisError, OcrError, ParseError,
        StpaError, PipelineError, AnalysisError,
        QuarantinedError, CorruptDatabaseError,
    ])
    def test_all_derive_from_repro_error(self, exc):
        assert issubclass(exc, ReproError)
        with pytest.raises(ReproError):
            raise exc("boom")

    def test_field_coercion_is_parse_error(self):
        assert issubclass(FieldCoercionError, ParseError)

    def test_unknown_format_is_parse_error(self):
        assert issubclass(UnknownFormatError, ParseError)

    def test_insufficient_data_is_analysis_error(self):
        assert issubclass(InsufficientDataError, AnalysisError)

    def test_parse_error_formats_context(self):
        error = ParseError("bad row", line="x — y",
                           manufacturer="Nissan")
        text = str(error)
        assert "bad row" in text
        assert "Nissan" in text
        assert "x — y" in text

    def test_parse_error_without_context(self):
        assert str(ParseError("plain")) == "plain"

    def test_corrupt_database_formats_path_and_reason(self):
        error = CorruptDatabaseError(
            "unreadable database", path="/tmp/db.json",
            reason="checksum mismatch")
        text = str(error)
        assert "unreadable database" in text
        assert "/tmp/db.json" in text
        assert "checksum mismatch" in text
        assert str(CorruptDatabaseError("plain")) == "plain"

    def test_quarantined_is_pipeline_error(self):
        assert issubclass(QuarantinedError, PipelineError)
        error = QuarantinedError("lost", unit_id="doc-1",
                                 stage="parse")
        assert error.unit_id == "doc-1"
        assert error.stage == "parse"

    def test_degraded_mode_is_a_warning_not_an_error(self):
        assert issubclass(DegradedModeWarning, Warning)
        assert not issubclass(DegradedModeWarning, ReproError)

    def test_catching_base_at_pipeline_boundary(self):
        # A caller can wrap any stage in one except clause.
        try:
            raise FieldCoercionError("nope")
        except ReproError as caught:
            assert "nope" in str(caught)


class TestApiFacade:
    def test_all_facade_exports_resolve(self):
        from repro import api

        for name in api.__all__:
            assert getattr(api, name) is not None, name

    def test_blessed_surface_present(self):
        from repro import api

        for name in ("run_pipeline", "process_corpus",
                     "load_database", "PipelineConfig", "Query",
                     "QueryEngine", "QueryServer", "FailureDatabase",
                     "MetricsRegistry", "Tracer", "load_trace",
                     "self_times", "ReproError",
                     "CorruptDatabaseError"):
            assert name in api.__all__, name

    def test_load_database_missing_file_is_corrupt_error(self,
                                                         tmp_path):
        from repro import api

        with pytest.raises(CorruptDatabaseError) as excinfo:
            api.load_database(tmp_path / "absent.json")
        assert excinfo.value.reason == "missing"
        assert str(tmp_path / "absent.json") in str(excinfo.value)

    def test_load_database_unreadable_path_is_corrupt_error(self,
                                                            tmp_path):
        from repro import api

        with pytest.raises(CorruptDatabaseError) as excinfo:
            api.load_database(tmp_path)
        assert excinfo.value.path == str(tmp_path)
        assert excinfo.value.reason == "unreadable: IsADirectoryError"
        assert isinstance(excinfo.value.__cause__, IsADirectoryError)
        # The store itself still lets errors other than corruption
        # propagate, as snapshot swaps rely on.
        with pytest.raises(IsADirectoryError):
            api.FailureDatabase.load(tmp_path)

    @pytest.mark.parametrize("payload", [
        # UTF-16 text with its byte-order mark.
        b"\xff\xfe" + '{"disengagements": []}'.encode("utf-16-le"),
        # A file in the retired binary container format: 8-byte magic,
        # header length, JSON header, then a packed float64 column.
        (bytes.fromhex("5250524f434f4c31") + struct.pack("<Q", 13)
         + b'{"format": 1}' + struct.pack("<d", 1234.5)),
    ], ids=["utf16", "binary-container"])
    def test_load_database_binary_file_is_corrupt_error(
            self, tmp_path, payload):
        from repro import api

        path = tmp_path / "db.json"
        path.write_bytes(payload)
        with pytest.raises(CorruptDatabaseError) as excinfo:
            api.load_database(path)
        assert str(path) in str(excinfo.value)

    def test_load_database_roundtrip(self, small_db, tmp_path):
        from repro import api

        small_db.save(tmp_path / "db.json")
        loaded = api.load_database(tmp_path / "db.json")
        assert loaded.fingerprint() == small_db.fingerprint()

    def test_unknown_attribute_still_raises(self):
        with pytest.raises(AttributeError):
            repro.definitely_not_a_thing
