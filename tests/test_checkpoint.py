"""Tests for crash-safe checkpointing, atomic persistence, and resume.

Covers the durability primitives (atomic replace, checksummed
journals and the streaming journal reader against its stdlib
reference), the typed :class:`~repro.errors.CorruptDatabaseError`
contract of the store, kill-point injection, the acceptance scenario
(crash at every declared point -> resume -> byte-identical database),
stale-checkpoint invalidation, and checksum-corruption recovery.
"""

import dataclasses
import hashlib
import json
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.cli import main
from repro.errors import CorruptDatabaseError, ReproError
from repro.parsing.records import (
    AccidentRecord,
    DisengagementRecord,
    MonthlyMileage,
)
from repro.pipeline.chaos import (
    CRASH_POINTS,
    CrashController,
    CrashPoint,
    SimulatedCrash,
)
from repro.pipeline.checkpoint import (
    NOT_FINGERPRINTED,
    CheckpointStore,
    atomic_write_text,
    canonical_bytes,
    config_fingerprint,
    journal_entries,
    journal_line,
    sha256_text,
)
from repro.pipeline.config import PipelineConfig
from repro.pipeline.ingest import _rewrite_journal
from repro.pipeline.resilience import Quarantine, QuarantineEntry
from repro.pipeline.runner import process_corpus, record_id
from repro.pipeline.store import FailureDatabase
from repro.reporting.summary import render_run_health
from repro.synth.dataset import generate_corpus

from .faults import inject
from .oracles import database_payload, read_journal_reference

SEED = 7
SUBSET = ["Nissan"]


@pytest.fixture(scope="module")
def corpus():
    return generate_corpus(SEED, SUBSET)


def _config(**kwargs) -> PipelineConfig:
    defaults = dict(seed=SEED, manufacturers=SUBSET, ocr_enabled=False)
    defaults.update(kwargs)
    return PipelineConfig(**defaults)


@pytest.fixture(scope="module")
def clean_json(corpus):
    """The uninterrupted no-checkpoint run every scenario must match."""
    return process_corpus(corpus, _config()).database.to_json()


def _read_journal(path):
    """:func:`journal_entries` folded as a resume sees it: ``(entries,
    corrupt)``, the last intact line per unit and the count of lines
    that failed integrity."""
    entries, corrupt = {}, 0
    for entry in journal_entries(path):
        if entry is None:
            corrupt += 1
        else:
            entries[entry[0]] = entry[1]
    return entries, corrupt


# ----------------------------------------------------------------------
# Durability primitives.
# ----------------------------------------------------------------------

class TestAtomicWrite:
    def test_publishes_content(self, tmp_path):
        target = tmp_path / "x.json"
        atomic_write_text(target, "one")
        atomic_write_text(target, "two")
        assert target.read_text() == "two"
        assert list(tmp_path.iterdir()) == [target]  # no temp debris

    def test_crash_mid_write_preserves_old_content(self, tmp_path):
        target = tmp_path / "x.json"
        target.write_text("old")

        def die():
            raise SimulatedCrash("mid-write")

        with pytest.raises(SimulatedCrash):
            atomic_write_text(target, "new", crash_hook=die)
        assert target.read_text() == "old"

    def test_publishes_byte_chunks_in_order(self, tmp_path):
        target = tmp_path / "x.json"
        atomic_write_text(target, iter([b"[1", b",2", b"]"]))
        assert target.read_bytes() == b"[1,2]"
        assert list(tmp_path.iterdir()) == [target]

    def test_failed_producer_leaves_old_content_and_no_debris(
            self, tmp_path):
        target = tmp_path / "x.json"
        target.write_text("old")

        def chunks():
            yield b"half a fi"
            raise TypeError("record is not JSON serializable")

        with pytest.raises(TypeError):
            atomic_write_text(target, chunks())
        assert target.read_text() == "old"
        assert list(tmp_path.iterdir()) == [target]


class TestJournal:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "j.jsonl"
        with open(path, "wb") as handle:
            handle.write(journal_line("a", {"v": 1}) + b"\n")
            handle.write(journal_line("b", {"v": 2}) + b"\n")
        entries, corrupt = _read_journal(path)
        assert entries == {"a": {"v": 1}, "b": {"v": 2}}
        assert corrupt == 0

    def test_missing_file_is_empty(self, tmp_path):
        assert _read_journal(tmp_path / "none.jsonl") == ({}, 0)

    def test_torn_tail_line_dropped(self, tmp_path):
        path = tmp_path / "j.jsonl"
        with open(path, "wb") as handle:
            handle.write(journal_line("a", {"v": 1}) + b"\n")
            handle.write(journal_line("b", {"v": 2})[:20])  # torn
        entries, corrupt = _read_journal(path)
        assert entries == {"a": {"v": 1}}
        assert corrupt == 1

    def test_checksum_mismatch_dropped(self, tmp_path):
        # Tampered after checksumming: the sha256 covers the body and
        # the unit id.
        path = tmp_path / "j.jsonl"
        line = journal_line("a", {"v": 1})
        path.write_bytes(line.replace(b'"v":1', b'"v":9') + b"\n"
                         + line.replace(b'"a"', b'"b"') + b"\n")
        entries, corrupt = _read_journal(path)
        assert entries == {}
        assert corrupt == 2

    def test_rejournaled_unit_latest_wins(self, tmp_path):
        path = tmp_path / "j.jsonl"
        with open(path, "wb") as handle:
            handle.write(journal_line("a", {"v": 1}) + b"\n")
            handle.write(journal_line("a", {"v": 2}) + b"\n")
        entries, _ = _read_journal(path)
        assert entries == {"a": {"v": 2}}

    def test_torn_tail_inside_a_character_dropped(self, tmp_path):
        # OCR output carries non-ASCII letters ("ı" is two bytes), so a
        # crash mid-append can cut a line inside one.
        path = tmp_path / "j.jsonl"
        torn = journal_line("b", {"text": "Nıssan"})
        cut = torn.index("ı".encode()) + 1
        path.write_bytes(journal_line("a", {"v": 1}) + b"\n"
                         + torn[:cut])
        assert _read_journal(path) == ({"a": {"v": 1}}, 1)
        assert read_journal_reference(path) == ({"a": {"v": 1}}, 1)


_TEXT = st.text(st.characters(codec="utf-8"), max_size=6)
_SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(-2**63, 2**64 - 1),
    st.floats(allow_nan=False, allow_infinity=False), _TEXT)
_BODIES = st.dictionaries(
    _TEXT, st.one_of(_SCALARS, st.lists(_SCALARS, max_size=3)),
    max_size=4)
#: Few ids, so that files re-journal units; two carry non-ASCII bytes.
_UNITS = st.sampled_from(["doc-1", "doc-2:7", "record:ı", "Nıssan"])
_BLANKS = st.sampled_from([b"", b" ", b"\t", b"\r", b" \t", b"\x0b", b"\x0c"])

def _flip(line: bytes, region: str, offset: int, mask: int) -> bytes:
    """``line`` with one byte of its unit id, body or sha256 changed."""
    body = line.index(b',"body":')
    sha = line.rindex(b',"sha256":"')
    low, high = {"unit": (8, body), "body": (body + 8, sha),
                 "sha": (sha + 11, sha + 75)}[region]
    at = low + offset % (high - low)
    return line[:at] + bytes([line[at] ^ mask]) + line[at + 1:]


def _signed(head: bytes, covered: bytes | None = None) -> bytes:
    """``head`` closed into a journal line whose sha256 covers
    ``covered`` (default: ``head`` itself)."""
    digest = hashlib.sha256(head if covered is None else covered)
    return head + b',"sha256":"' + digest.hexdigest().encode() + b'"}'


def _same_entry(flipped: bytes, line: bytes) -> bool:
    """Whether ``flipped`` still decodes to ``line``'s unit id, body and
    sha256."""
    try:
        return (canonical_bytes(json.loads(flipped))
                == canonical_bytes(json.loads(line)))
    except (ValueError, TypeError):
        return False


@st.composite
def _journal_files(draw) -> bytes:
    lines = []
    for _ in range(draw(st.integers(0, 6))):
        kind = draw(st.sampled_from(["writer", "blank", "flipped"]))
        if kind == "blank":
            lines.append(draw(_BLANKS))
            continue
        line = journal_line(draw(_UNITS), draw(_BODIES))
        if kind == "flipped":
            flipped = _flip(
                line, draw(st.sampled_from(["unit", "body", "sha"])),
                draw(st.integers(0, 10**6)), draw(st.integers(1, 255)))
            # A flip that only respells a value (``...675e-279`` as
            # ``...674e-279``) is a documented difference of
            # ``journal_entries``, pinned below; keep the line intact.
            if not _same_entry(flipped, line):
                line = flipped
        lines.append(line)
    data = b"".join(line + b"\n" for line in lines)
    if draw(st.booleans()):  # a torn tail, possibly inside a character
        torn = journal_line(draw(_UNITS), draw(_BODIES))
        data += torn[:draw(st.integers(0, len(torn) - 1))]
    return data


class TestJournalReaderOracle:
    """The streaming reader restores what the stdlib reader restored."""

    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=_journal_files())
    def test_reads_as_reference(self, tmp_path, data):
        path = tmp_path / "j.jsonl"
        path.write_bytes(data)
        assert _read_journal(path) == read_journal_reference(path)

    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=_journal_files(), live=st.sets(_UNITS))
    def test_surgery_drops_exactly_the_units_it_names(self, tmp_path,
                                                      data, live):
        # Ingest surgery reads only unit ids; the resume must then see
        # every live unit's entry and no other.
        path = tmp_path / "j.jsonl"
        path.write_bytes(data)
        entries, corrupt = _read_journal(path)
        dropped = _rewrite_journal(path, live.__contains__)
        assert not dropped & live
        assert set(entries) - live <= dropped
        if not dropped:
            assert path.read_bytes() == data
        kept, kept_corrupt = _read_journal(path)
        assert kept == {unit: body for unit, body in entries.items()
                        if unit in live}
        assert kept_corrupt <= corrupt

    @pytest.mark.parametrize("line, accepted", [
        # A non-canonical body whose sha256 covers its exact bytes.
        (_signed(b'{"unit":"a","body":{"v": 1}'), True),
        # Another key order, whose sha256 covers the canonical bytes.
        (json.dumps({"sha256": hashlib.sha256(
            b'{"unit":"a","body":{"v":1}').hexdigest(),
            "unit": "a", "body": {"v": 1}}).encode(), False),
        # A form feed after the line, which JSON does not allow.
        (journal_line("a", {"v": 1}) + b"\x0c", False),
        # NaN, whose canonical re-encode is null.
        (_signed(b'{"unit":"a","body":{"v":NaN}',
                 b'{"unit":"a","body":{"v":null}'), False),
        # A flipped digit that spells the same float: its canonical
        # re-encode is the bytes the sha256 covered, those it carries
        # are not.
        (journal_line("a", {"v": 6.2902665041697675e-279}).replace(
            b"675e-279", b"674e-279"), False),
    ], ids=["own-bytes-checksum", "other-key-order", "form-feed-padding",
            "nan-token", "float-respelling"])
    def test_documented_differences(self, tmp_path, line, accepted):
        path = tmp_path / "j.jsonl"
        path.write_bytes(line + b"\n")
        assert _read_journal(path)[1] == (0 if accepted else 1)
        assert read_journal_reference(path)[1] == (1 if accepted else 0)


class TestCheckpointStore:
    def test_artifact_round_trip(self, tmp_path):
        store = CheckpointStore(tmp_path, "fp")
        store.open(resume=False)
        store.write_artifact("dictionary", {"k": [1, 2]})
        assert store.load_artifact("dictionary") == {"k": [1, 2]}

    def test_corrupt_artifact_reported_not_trusted(self, tmp_path):
        store = CheckpointStore(tmp_path, "fp")
        store.open(resume=False)
        store.write_artifact("dictionary", {"k": 1})
        raw = json.loads((tmp_path / "dictionary.json").read_text())
        raw["payload"]["k"] = 2
        (tmp_path / "dictionary.json").write_text(json.dumps(raw))
        assert store.load_artifact("dictionary") is None
        assert store.health.corrupt_entries == 1

    def test_invalid_utf8_artifact_reported_not_trusted(self, tmp_path):
        store = CheckpointStore(tmp_path, "fp")
        store.open(resume=False)
        store.write_artifact("dictionary", {"k": "x"})
        path = tmp_path / "dictionary.json"
        path.write_bytes(path.read_bytes().replace(b'"x"', b'"\xff"'))
        assert store.load_artifact("dictionary") is None
        assert store.health.corrupt_entries == 1

    def test_fresh_open_discards_previous_state(self, tmp_path):
        store = CheckpointStore(tmp_path, "fp")
        store.open(resume=False)
        store.append("tags", "a", {"v": 1})
        store.close()
        again = CheckpointStore(tmp_path, "fp")
        again.open(resume=False)  # not a resume: start over
        assert dict(again.restored("tags")) == {}
        assert not (tmp_path / "tags.jsonl").exists()

    @pytest.mark.parametrize("breakage", [
        lambda d: (d / "manifest.json").unlink(),
        lambda d: (d / "manifest.json").write_text("{torn"),
        lambda d: (d / "manifest.json").write_text(json.dumps(
            {"format": 999, "version": "x", "fingerprint": "fp"})),
        lambda d: (d / "manifest.json").write_bytes(
            b'{"format": 1, "version": "\xff", "fingerprint": "fp"}'),
    ])
    def test_unusable_manifest_marks_stale(self, tmp_path, breakage):
        store = CheckpointStore(tmp_path, "fp")
        store.open(resume=False)
        store.append("tags", "a", {"v": 1})
        store.close()
        breakage(tmp_path)
        resumed = CheckpointStore(tmp_path, "fp")
        resumed.open(resume=True)
        assert resumed.health.stale
        assert dict(resumed.restored("tags")) == {}

    def test_fingerprint_mismatch_marks_stale(self, tmp_path):
        store = CheckpointStore(tmp_path, "fp-a")
        store.open(resume=False)
        store.close()
        resumed = CheckpointStore(tmp_path, "fp-b")
        resumed.open(resume=True)
        assert resumed.health.stale
        assert "fingerprint" in resumed.health.stale_reason


class TestConfigFingerprint:
    def test_stable_for_same_config(self):
        assert (config_fingerprint(_config())
                == config_fingerprint(_config()))

    def test_seed_changes_fingerprint(self):
        assert (config_fingerprint(_config())
                != config_fingerprint(_config(seed=8)))

    def test_crash_point_and_checkpoint_knobs_excluded(self, tmp_path):
        # A resume run drops --crash-at; it must still adopt the
        # pre-crash checkpoints.
        crashed = _config(checkpoint_dir=tmp_path,
                          crash=CrashPoint(at="mid-tag"))
        resumed = _config(checkpoint_dir=tmp_path, resume=True)
        assert (config_fingerprint(crashed)
                == config_fingerprint(resumed))
        assert (config_fingerprint(_config())
                == config_fingerprint(resumed))

    def test_every_output_shaping_field_changes_it(self):
        # One non-default value per fingerprinted field.  A new
        # PipelineConfig field fails here until it gets a value below
        # or is named in NOT_FINGERPRINTED.
        changed = {
            "seed": 8,
            "manufacturers": ["Nissan"],
            "ocr_enabled": False,
            "correction_enabled": False,
            "dictionary_mode": "seed",
            "drop_planned": True,
            "failure_policy": "fail_fast",
            "max_error_rate": 0.5,
        }
        base = PipelineConfig()
        for name, value in changed.items():
            assert value != getattr(base, name), name
            assert (config_fingerprint(dataclasses.replace(
                base, **{name: value}))
                != config_fingerprint(base)), name
        assert (set(changed)
                == {f.name for f in dataclasses.fields(PipelineConfig)}
                - NOT_FINGERPRINTED)


# ----------------------------------------------------------------------
# Store persistence: atomicity + the typed corruption contract.
# ----------------------------------------------------------------------

def _sample_database(with_quarantine: bool) -> FailureDatabase:
    quarantine = Quarantine()
    if with_quarantine:
        quarantine.add(QuarantineEntry(
            unit_id="doc-9", stage="parse", error_type="ChaosError",
            message="boom", traceback="Traceback ..."))
    return FailureDatabase(
        disengagements=[DisengagementRecord(
            manufacturer="Nissan", month="2016-03",
            description="planner hesitated", reaction_time_s=0.8,
            source_document="doc-1", source_line=4)],
        accidents=[AccidentRecord(
            manufacturer="Nissan", month="2016-04",
            description="rear-ended at a light", av_speed_mph=0.0,
            other_speed_mph=8.0)],
        mileage=[MonthlyMileage(
            manufacturer="Nissan", month="2016-03", miles=512.5,
            vehicle_id="n1")],
        quarantine=quarantine,
    )


class TestDatabasePersistence:
    @pytest.mark.parametrize("with_quarantine", [False, True])
    def test_save_load_round_trip(self, tmp_path, with_quarantine):
        db = _sample_database(with_quarantine)
        path = tmp_path / "db.json"
        db.save(path)
        assert FailureDatabase.load(path).to_json() == db.to_json()
        sidecar = tmp_path / "db.json.sha256"
        assert sidecar.exists()
        assert sidecar.read_text().split()[0] == sha256_text(
            path.read_text())

    def test_crash_mid_save_never_tears_existing_file(self, tmp_path):
        path = tmp_path / "db.json"
        _sample_database(False).save(path)
        before = path.read_text()
        crash = CrashController(CrashPoint(at="save"))
        with pytest.raises(SimulatedCrash):
            _sample_database(True).save(path, crash=crash)
        assert path.read_text() == before
        assert FailureDatabase.load(path).to_json() == before

    def test_stdlib_layout_file_loads(self, tmp_path):
        # Files saved before the encoder became canonical hold
        # ``json.dumps`` text: spaces, ``\uXXXX`` escapes, field order.
        db = _sample_database(True)
        db.disengagements[0].description = "Fußgänger — 行人"
        db = dataclasses.replace(db)
        text = json.dumps(database_payload(db))
        path = tmp_path / "db.json"
        path.write_text(text, encoding="utf-8")
        (tmp_path / "db.json.sha256").write_text(
            f"{sha256_text(text)}  db.json\n", encoding="utf-8")
        loaded = FailureDatabase.load(path)
        assert loaded == db
        assert loaded.fingerprint() == db.fingerprint()

    @pytest.mark.parametrize("value", [float("nan"), float("inf")],
                             ids=["NaN", "Infinity"])
    def test_non_json_number_tokens_raise_typed_error(self, tmp_path,
                                                      value):
        db = _sample_database(False)
        db.disengagements[0].reaction_time_s = value
        text = json.dumps(database_payload(db))  # writes NaN/Infinity
        path = tmp_path / "db.json"
        path.write_text(text, encoding="utf-8")
        (tmp_path / "db.json.sha256").write_text(
            f"{hashlib.sha256(text.encode()).hexdigest()}  db.json\n",
            encoding="utf-8")
        with pytest.raises(CorruptDatabaseError) as info:
            FailureDatabase.load(path)
        assert "invalid JSON" in info.value.reason
        assert info.value.path == str(path)

    def test_load_without_sidecar_still_works(self, tmp_path):
        db = _sample_database(False)
        path = tmp_path / "db.json"
        path.write_text(db.to_json())  # pre-atomic-save era file
        assert FailureDatabase.load(path).to_json() == db.to_json()

    def test_checksum_mismatch_raises_typed_error(self, tmp_path):
        path = tmp_path / "db.json"
        _sample_database(False).save(path)
        text = path.read_text().replace("Nissan", "Datsun")
        path.write_text(text)
        with pytest.raises(CorruptDatabaseError) as info:
            FailureDatabase.load(path)
        assert info.value.reason == "checksum mismatch"
        assert info.value.path == str(path)

    def test_truncated_json_raises_typed_error(self, tmp_path):
        path = tmp_path / "db.json"
        path.write_text(_sample_database(False).to_json()[:40])
        with pytest.raises(CorruptDatabaseError) as info:
            FailureDatabase.load(path)
        assert "invalid JSON" in info.value.reason
        assert info.value.path == str(path)

    def test_missing_section_names_the_key(self):
        with pytest.raises(CorruptDatabaseError) as info:
            FailureDatabase.from_json(
                '{"disengagements": [], "accidents": []}')
        assert "mileage" in str(info.value)

    def test_bad_entry_names_section_and_index(self):
        payload = json.loads(_sample_database(False).to_json())
        del payload["disengagements"][0]["manufacturer"]
        with pytest.raises(CorruptDatabaseError) as info:
            FailureDatabase.from_json(json.dumps(payload))
        assert "disengagements" in str(info.value)
        assert "entry 0" in str(info.value)

    def test_non_list_section_rejected(self):
        with pytest.raises(CorruptDatabaseError):
            FailureDatabase.from_json(
                '{"disengagements": {}, "accidents": [],'
                ' "mileage": []}')

    def test_corrupt_database_error_is_repro_error(self):
        assert issubclass(CorruptDatabaseError, ReproError)
        with pytest.raises(ReproError):
            FailureDatabase.from_json("not json at all")


# ----------------------------------------------------------------------
# Kill points.
# ----------------------------------------------------------------------

class TestCrashPoint:
    def test_unknown_point_rejected(self):
        with pytest.raises(ValueError):
            CrashPoint(at="lunchtime")

    def test_controller_fires_only_at_its_point(self):
        crash = CrashController(CrashPoint(at="normalize"))
        crash.reached("dictionary")  # no-op
        with pytest.raises(SimulatedCrash):
            crash.reached("normalize")

    def test_disabled_controller_is_noop(self):
        crash = CrashController(None)
        for point in CRASH_POINTS:
            crash.reached(point)

    def test_simulated_crash_evades_exception_handlers(self):
        # The resilience layer catches Exception; a hard crash must
        # not be quarantinable.
        assert not issubclass(SimulatedCrash, Exception)


# ----------------------------------------------------------------------
# The acceptance scenario: crash -> resume -> byte-identical database.
# ----------------------------------------------------------------------

class TestCrashResume:
    @pytest.mark.parametrize(
        "point", [p for p in CRASH_POINTS if p != "save"])
    def test_resume_is_byte_identical_after_crash(
            self, tmp_path, corpus, clean_json, point):
        with pytest.raises(SimulatedCrash):
            process_corpus(corpus, _config(
                checkpoint_dir=tmp_path, crash=CrashPoint(at=point)))
        result = process_corpus(corpus, _config(
            checkpoint_dir=tmp_path, resume=True))
        assert result.database.to_json() == clean_json
        checkpoint = result.diagnostics.health.checkpoint
        assert checkpoint.enabled and checkpoint.resumed
        assert not checkpoint.stale

    def test_resume_after_save_crash(self, tmp_path, corpus,
                                     clean_json):
        out = tmp_path / "db.json"
        result = process_corpus(corpus, _config(
            checkpoint_dir=tmp_path / "ckpt",
            crash=CrashPoint(at="save")))
        with pytest.raises(SimulatedCrash):
            result.database.save(
                out, crash=CrashController(result.config.crash))
        assert not out.exists()  # only temp debris, never a torn file
        resumed = process_corpus(corpus, _config(
            checkpoint_dir=tmp_path / "ckpt", resume=True))
        resumed.database.save(out)
        assert out.read_text() == clean_json

    def test_clean_checkpointed_run_matches_plain_run(
            self, tmp_path, corpus, clean_json):
        result = process_corpus(
            corpus, _config(checkpoint_dir=tmp_path))
        assert result.database.to_json() == clean_json
        checkpoint = result.diagnostics.health.checkpoint
        assert checkpoint.restored_units == 0
        assert checkpoint.recomputed_units > 0

    def test_resume_restores_instead_of_recomputing(
            self, tmp_path, corpus, clean_json):
        process_corpus(corpus, _config(checkpoint_dir=tmp_path))
        result = process_corpus(corpus, _config(
            checkpoint_dir=tmp_path, resume=True))
        assert result.database.to_json() == clean_json
        checkpoint = result.diagnostics.health.checkpoint
        assert checkpoint.recomputed_units == 0
        assert checkpoint.restored_units > 0
        assert checkpoint.artifacts_restored == 1  # the dictionary
        assert result.diagnostics.parse.documents_restored > 0

    def test_directory_with_retired_normalized_artifact_resumes(
            self, tmp_path, corpus, clean_json):
        # Earlier releases also wrote the normalized+filtered records
        # as a ``normalized`` artifact; its bytes are rebuilt here.
        # Nothing reads it any more: a resume leaves it in place, and
        # a fresh run deletes it with the rest of the old state.
        written = process_corpus(corpus, _config(checkpoint_dir=tmp_path))
        diagnostics = written.diagnostics
        store = CheckpointStore(tmp_path, "unused")
        store.write_artifact("normalized", {
            "disengagements": [
                vars(dataclasses.replace(r, tag=None, category=None))
                for r in written.database.disengagements],
            "mileage": [vars(m) for m in written.database.mileage],
            "normalization": dataclasses.asdict(diagnostics.normalization),
            "filters": dataclasses.asdict(diagnostics.filters),
        })
        artifact = tmp_path / "normalized.json"
        before = {path.name: path.read_bytes()
                  for path in tmp_path.iterdir()}
        result = process_corpus(corpus, _config(
            checkpoint_dir=tmp_path, resume=True))
        assert result.database.to_json() == clean_json
        checkpoint = result.diagnostics.health.checkpoint
        assert not checkpoint.stale
        assert checkpoint.recomputed_units == 0
        assert checkpoint.artifacts_restored == 1  # the dictionary
        assert {path.name: path.read_bytes()
                for path in tmp_path.iterdir()} == before
        process_corpus(corpus, _config(checkpoint_dir=tmp_path))
        assert not artifact.exists()

    def test_resume_with_chaos_quarantine_byte_identical(
            self, tmp_path, corpus):
        with inject("parse", 0.5, SEED):
            uninterrupted = process_corpus(corpus, _config()).database
            assert len(uninterrupted.quarantine)  # scenario exercised
            with pytest.raises(SimulatedCrash):
                process_corpus(corpus, _config(
                    checkpoint_dir=tmp_path,
                    crash=CrashPoint(at="dictionary")))
            resumed = process_corpus(corpus, _config(
                checkpoint_dir=tmp_path, resume=True))
        assert resumed.database.to_json() == uninterrupted.to_json()


class TestStaleAndCorruptCheckpoints:
    def test_config_change_invalidates_checkpoint(self, tmp_path,
                                                  corpus):
        with pytest.raises(SimulatedCrash):
            process_corpus(corpus, _config(
                checkpoint_dir=tmp_path, crash=CrashPoint(at="tag")))
        # Resume under a *different* seed: stale, fully recomputed.
        other = process_corpus(corpus, _config(
            seed=8, checkpoint_dir=tmp_path, resume=True))
        checkpoint = other.diagnostics.health.checkpoint
        assert checkpoint.stale
        assert checkpoint.restored_units == 0
        fresh = process_corpus(corpus, _config(seed=8))
        assert other.database.to_json() == fresh.database.to_json()

    def test_corrupted_journal_entry_recomputed(self, tmp_path,
                                                corpus, clean_json):
        with pytest.raises(SimulatedCrash):
            process_corpus(corpus, _config(
                checkpoint_dir=tmp_path, crash=CrashPoint(at="tag")))
        journal = tmp_path / "tags.jsonl"
        lines = journal.read_text().splitlines()
        lines[0] = lines[0].replace(
            '"tag"', '"gat"', 1)  # breaks the line's checksum
        journal.write_text("\n".join(lines) + "\n")
        result = process_corpus(corpus, _config(
            checkpoint_dir=tmp_path, resume=True))
        assert result.database.to_json() == clean_json
        checkpoint = result.diagnostics.health.checkpoint
        assert checkpoint.corrupt_entries >= 1
        assert checkpoint.recomputed_units >= 1

    def test_corrupted_artifact_recomputed(self, tmp_path, corpus,
                                           clean_json):
        with pytest.raises(SimulatedCrash):
            process_corpus(corpus, _config(
                checkpoint_dir=tmp_path, crash=CrashPoint(at="tag")))
        artifact = tmp_path / "dictionary.json"
        artifact.write_text(artifact.read_text()[:-30])  # torn
        result = process_corpus(corpus, _config(
            checkpoint_dir=tmp_path, resume=True))
        assert result.database.to_json() == clean_json
        checkpoint = result.diagnostics.health.checkpoint
        assert checkpoint.corrupt_entries >= 1
        assert checkpoint.artifacts_restored == 0  # the dictionary failed

    def test_torn_multibyte_journal_tail_recomputed(self, tmp_path,
                                                    corpus, clean_json):
        with pytest.raises(SimulatedCrash):
            process_corpus(corpus, _config(
                checkpoint_dir=tmp_path, crash=CrashPoint(at="tag")))
        journal = tmp_path / "documents.jsonl"
        *kept, last = journal.read_bytes().splitlines(keepends=True)
        unit = json.loads(last)["unit"]
        torn = journal_line(unit, {"outcome": "ok", "text": "ı"})
        journal.write_bytes(b"".join(kept)
                            + torn[:torn.index("ı".encode()) + 1])
        result = process_corpus(corpus, _config(
            checkpoint_dir=tmp_path, resume=True))
        assert result.database.to_json() == clean_json
        checkpoint = result.diagnostics.health.checkpoint
        assert checkpoint.corrupt_entries == 1
        assert checkpoint.recomputed_units >= 1

    def test_torn_tail_counted_once(self, tmp_path, corpus, clean_json):
        process_corpus(corpus, _config(checkpoint_dir=tmp_path))
        journal = tmp_path / "documents.jsonl"
        data = journal.read_bytes()
        last = data.rindex(b"\n", 0, len(data) - 1) + 1
        journal.write_bytes(data[:last + 50])  # torn 50 bytes in
        # The first resume recomputes the torn unit and appends it on
        # a line of its own, so the second finds nothing to redo.
        for expected in ((1, 1), (0, 0)):
            result = process_corpus(corpus, _config(
                checkpoint_dir=tmp_path, resume=True))
            assert result.database.to_json() == clean_json
            checkpoint = result.diagnostics.health.checkpoint
            assert (checkpoint.corrupt_entries,
                    checkpoint.recomputed_units) == expected

    def test_mid_file_corrupt_line_counted_once(self, tmp_path, corpus,
                                                clean_json):
        process_corpus(corpus, _config(checkpoint_dir=tmp_path))
        journal = tmp_path / "tags.jsonl"
        lines = journal.read_bytes().splitlines(keepends=True)
        middle = len(lines) // 2
        damaged = lines[middle].replace(b'"body":{', b'"body":{ ', 1)
        journal.write_bytes(b"".join(
            [*lines[:middle], damaged, *lines[middle + 1:]]))
        # The first resume rewrites the journal without the damaged
        # line and journals its unit anew, so later resumes find
        # nothing to report.
        for expected in ((1, 1), (0, 0), (0, 0)):
            result = process_corpus(corpus, _config(
                checkpoint_dir=tmp_path, resume=True))
            assert result.database.to_json() == clean_json
            checkpoint = result.diagnostics.health.checkpoint
            assert (checkpoint.corrupt_entries,
                    checkpoint.recomputed_units) == expected
        # Every other line kept its bytes, and the recomputed unit's
        # line is the one the damage replaced.
        assert journal.read_bytes() == b"".join(
            [*lines[:middle], *lines[middle + 1:], lines[middle]])

    def test_unterminated_intact_tail_restored(self, tmp_path, corpus,
                                               clean_json):
        with pytest.raises(SimulatedCrash):
            process_corpus(corpus, _config(
                checkpoint_dir=tmp_path, crash=CrashPoint(at="mid-tag")))
        journal = tmp_path / "tags.jsonl"
        data = journal.read_bytes()
        journal.write_bytes(data[:-1])  # only the last newline lost
        first = process_corpus(corpus, _config(
            checkpoint_dir=tmp_path, resume=True))
        checkpoint = first.diagnostics.health.checkpoint
        assert checkpoint.corrupt_entries == 0
        assert checkpoint.recomputed_units > 0  # appended after it
        second = process_corpus(corpus, _config(
            checkpoint_dir=tmp_path, resume=True))
        checkpoint = second.diagnostics.health.checkpoint
        assert (checkpoint.corrupt_entries,
                checkpoint.recomputed_units) == (0, 0)
        assert first.database.to_json() == clean_json
        assert second.database.to_json() == clean_json

    def test_unit_id_flip_counts_as_corrupt(self, tmp_path, corpus,
                                            clean_json):
        # One byte moves this tag to record 67 unless the line's
        # sha256 covers its unit id.
        process_corpus(corpus, _config(checkpoint_dir=tmp_path))
        journal = tmp_path / "tags.jsonl"
        data = journal.read_bytes()
        flipped = data.replace(b'disengagements:69"',
                               b'disengagements:67"', 1)
        assert len(flipped) == len(data) and flipped != data
        journal.write_bytes(flipped)
        result = process_corpus(corpus, _config(
            checkpoint_dir=tmp_path, resume=True))
        assert result.diagnostics.health.checkpoint.corrupt_entries == 1
        assert result.database.to_json() == clean_json


# ----------------------------------------------------------------------
# Unit ids, validation, and reporting satellites.
# ----------------------------------------------------------------------

class TestRecordId:
    def test_provenance_id_unchanged(self):
        record = DisengagementRecord(
            manufacturer="Nissan", month="2016-01",
            source_document="doc-3", source_line=12)
        assert record_id(record) == "doc-3:12"

    def test_fallback_id_is_content_based_not_positional(self):
        records = [
            DisengagementRecord(manufacturer="Nissan",
                                month="2016-01", description=text)
            for text in ("lidar dropout", "planner hesitated")
        ]
        before = [record_id(r) for r in records]
        # An earlier record being filtered/quarantined away must not
        # re-key the survivors.
        assert record_id(records[1]) == before[1]
        assert before[0] != before[1]
        assert all(rid.startswith("record:") for rid in before)


class TestKnobValidation:
    @pytest.mark.parametrize("kwargs", [
        {"max_error_rate": -0.1},
        {"max_error_rate": 1.5},
        {"failure_policy": "telepathy"},
        {"dictionary_mode": "bigrams"},
        {"resume": True},  # without a checkpoint_dir
    ])
    def test_pipeline_config_rejects_bad_knobs(self, kwargs):
        with pytest.raises(ValueError):
            PipelineConfig(**kwargs)

    @pytest.mark.parametrize("argv", [
        ["run", "--max-error-rate", "-0.1"],
        ["run", "--max-error-rate", "1.5"],
        ["run", "--manufacturers", "Foo"],
        ["run", "--resume"],
    ])
    def test_cli_rejects_bad_flags_with_message(self, argv, capsys):
        from repro.cli import main

        assert main(argv) == 2
        assert "error" in capsys.readouterr().err


class TestHealthReporting:
    def test_summary_carries_checkpoint_section(self, tmp_path,
                                                corpus):
        process_corpus(corpus, _config(checkpoint_dir=tmp_path))
        result = process_corpus(corpus, _config(
            checkpoint_dir=tmp_path, resume=True))
        summary = result.diagnostics.health.summary()
        assert summary["checkpoint"]["enabled"]
        assert summary["checkpoint"]["restored_units"] > 0

    def test_render_run_health_shows_checkpoint_line(self, tmp_path,
                                                     corpus):
        process_corpus(corpus, _config(checkpoint_dir=tmp_path))
        result = process_corpus(corpus, _config(
            checkpoint_dir=tmp_path, resume=True))
        text = render_run_health(result.diagnostics.health,
                                 result.database.quarantine)
        assert "checkpoint:" in text
        assert "restored" in text

    def test_render_run_health_silent_when_disabled(self, corpus):
        result = process_corpus(corpus, _config())
        text = render_run_health(result.diagnostics.health,
                                 result.database.quarantine)
        assert "checkpoint:" not in text


class TestCliCrashResume:
    def test_cli_crash_then_resume_matches_clean_run(self, tmp_path):
        from repro.cli import main

        base = ["run", "--seed", str(SEED), "--manufacturers",
                "Nissan", "--no-ocr"]
        clean_out = tmp_path / "clean.json"
        assert main(base + ["--out", str(clean_out)]) == 0
        ckpt = tmp_path / "ckpt"
        with pytest.raises(SimulatedCrash):
            main(base + ["--checkpoint-dir", str(ckpt),
                         "--crash-at", "mid-tag",
                         "--out", str(tmp_path / "crashed.json")])
        assert not (tmp_path / "crashed.json").exists()
        resumed_out = tmp_path / "resumed.json"
        assert main(base + ["--checkpoint-dir", str(ckpt), "--resume",
                            "--out", str(resumed_out)]) == 0
        assert resumed_out.read_text() == clean_out.read_text()
