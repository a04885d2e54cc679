"""Tests for the pipeline resilience layer.

Covers the three failure-policy modes, quarantine round-tripping,
degradation fallbacks, the determinism contract (a clean guarded run
is byte-identical to an unguarded one), and the acceptance scenario:
a run with a 10% exception rate injected into the parse stage.
Faults are injected through :func:`tests.faults.inject`.
"""

import hashlib
import json
from collections import Counter

import pytest

from repro.errors import (
    DegradedModeWarning,
    ParseError,
    PipelineError,
    QuarantinedError,
    ReproError,
)
from repro.pipeline import resilience
from repro.pipeline.config import PipelineConfig
from repro.pipeline.resilience import (
    FailurePolicy,
    Quarantine,
    QuarantineEntry,
    StageGuard,
)
from repro.pipeline.runner import process_corpus, run_pipeline
from repro.pipeline.store import FailureDatabase
from repro.synth.dataset import generate_corpus

from .faults import ChaosError, inject


class TestFailurePolicy:
    def test_defaults(self):
        policy = FailurePolicy()
        assert policy.mode == "quarantine"
        assert policy.max_error_rate == 0.1

    @pytest.mark.parametrize("kwargs", [
        {"mode": "panic"},
        {"max_error_rate": 1.5},
        {"max_error_rate": -0.1},
        {"max_error_rate": float("nan")},
        {"mode": "QUARANTINE"},  # modes are exact names
    ])
    def test_invalid_knobs_rejected(self, kwargs):
        with pytest.raises(ValueError):
            FailurePolicy(**kwargs)

    def test_config_resolves_policy(self):
        config = PipelineConfig(failure_policy="threshold",
                                max_error_rate=0.25)
        policy = config.resolved_policy()
        assert policy == FailurePolicy(mode="threshold",
                                       max_error_rate=0.25)

    def test_config_rejects_unknown_policy(self):
        with pytest.raises(ValueError):
            PipelineConfig(failure_policy="telepathy")


def _failing(message="boom"):
    def func():
        raise RuntimeError(message)
    return func


class TestStageGuard:
    def test_success_passes_value_through(self):
        guard = StageGuard()
        assert guard.run("stage", "u1", lambda: "value") == "value"
        assert guard.health.stage("stage").attempts == 1
        assert guard.health.clean

    def test_expected_exceptions_are_domain_outcomes(self):
        guard = StageGuard()

        def unparseable():
            raise ParseError("bad report")

        with pytest.raises(ParseError):
            guard.run("parse", "doc", unparseable,
                      expected=(ParseError,))
        assert guard.health.stage("parse").errors == 0
        assert len(guard.quarantine) == 0

    def test_fail_fast_raises_pipeline_error(self):
        guard = StageGuard(FailurePolicy(mode="fail_fast"))
        with pytest.raises(PipelineError):
            guard.run("stage", "u1", _failing())
        assert len(guard.quarantine) == 0

    def test_quarantine_captures_and_continues(self):
        guard = StageGuard(FailurePolicy(mode="quarantine"))
        with pytest.raises(QuarantinedError):
            guard.run("stage", "u1", _failing("first"))
        assert guard.run("stage", "u2", lambda: "fine") == "fine"
        entry = guard.quarantine.entries[0]
        assert entry.unit_id == "u1"
        assert entry.stage == "stage"
        assert entry.error_type == "RuntimeError"
        assert "first" in entry.message
        assert "RuntimeError" in entry.traceback

    def test_all_guard_failures_catchable_as_repro_error(
            self, monkeypatch):
        # The hierarchy contract: whatever mode, a failure surfaced by
        # the resilience layer is a ReproError.
        monkeypatch.setattr(resilience, "MIN_SAMPLES", 1)
        for mode in ("fail_fast", "quarantine", "threshold"):
            guard = StageGuard(FailurePolicy(mode=mode,
                                             max_error_rate=0.0))
            with pytest.raises(ReproError):
                guard.run("stage", "u1", _failing())

    def test_fallback_degrades_instead_of_quarantining(self):
        guard = StageGuard(FailurePolicy(mode="quarantine"))
        value = guard.run("dictionary", "corpus", _failing(),
                          fallback=lambda: -1)
        assert value == -1
        stats = guard.health.stage("dictionary")
        assert stats.errors == 1
        assert stats.degradations == 1
        assert stats.quarantined == 0
        assert len(guard.quarantine) == 0
        assert guard.health.degradation_events

    def test_fallback_ignored_under_fail_fast(self):
        guard = StageGuard(FailurePolicy(mode="fail_fast"))
        with pytest.raises(PipelineError):
            guard.run("dictionary", "corpus", _failing(),
                      fallback=lambda: -1)

    def test_threshold_aborts_at_exactly_the_configured_rate(
            self, monkeypatch):
        # max_error_rate is a strict bound: a stage sitting exactly at
        # the configured rate keeps going; the first error that pushes
        # it over aborts the run.
        monkeypatch.setattr(resilience, "MIN_SAMPLES", 2)
        policy = FailurePolicy(mode="threshold", max_error_rate=0.5)
        guard = StageGuard(policy)
        # Error 1/1: 100%, but below MIN_SAMPLES -> quarantined only.
        with pytest.raises(QuarantinedError):
            guard.run("stage", "u0", _failing())
        # Success 1/2: rate drops to exactly 0.5 -> not *over* -> ok.
        guard.run("stage", "u1", lambda: "ok")
        assert guard.health.stage("stage").error_rate == 0.5
        # Error 2/3: 66.7% > 50% -> threshold abort.
        with pytest.raises(PipelineError) as excinfo:
            guard.run("stage", "u2", _failing())
        assert not isinstance(excinfo.value, QuarantinedError)
        assert guard.health.stage("stage").errors == 2

    def test_threshold_respects_min_samples(self, monkeypatch):
        monkeypatch.setattr(resilience, "MIN_SAMPLES", 5)
        policy = FailurePolicy(mode="threshold", max_error_rate=0.1)
        guard = StageGuard(policy)
        # One early failure is 100% error rate but below MIN_SAMPLES.
        with pytest.raises(QuarantinedError):
            guard.run("stage", "u0", _failing())
        for i in range(1, 4):
            guard.run("stage", f"u{i}", lambda: i)
        # 5th attempt fails: 2/5 = 40% > 10% -> abort.
        with pytest.raises(PipelineError) as excinfo:
            guard.run("stage", "u4", _failing())
        assert not isinstance(excinfo.value, QuarantinedError)


class TestQuarantineStore:
    def test_by_stage_and_unit_ids(self):
        # Per-stage counts and one stage's unit ids, read off the
        # entries in the order they were added.
        quarantine = Quarantine()
        quarantine.add(QuarantineEntry("d1", "parse", "ValueError",
                                       "m", "tb"))
        quarantine.add(QuarantineEntry("d2", "parse", "KeyError",
                                       "m", "tb"))
        quarantine.add(QuarantineEntry("d3", "ocr", "OSError",
                                       "m", "tb"))
        assert len(quarantine) == 3 and quarantine
        assert Counter(e.stage for e in quarantine) == {"ocr": 1,
                                                        "parse": 2}
        assert [e.unit_id for e in quarantine
                if e.stage == "parse"] == ["d1", "d2"]

    def test_roundtrip_through_database_json(self):
        db = FailureDatabase()
        db.quarantine.add(QuarantineEntry(
            unit_id="doc-7", stage="parse",
            error_type="ChaosError", message="injected",
            traceback="Traceback ..."))
        clone = FailureDatabase.from_json(db.to_json())
        assert clone.quarantine.entries == db.quarantine.entries

    def test_clean_database_json_has_no_quarantine_key(self):
        # Byte-stability: clean databases serialize exactly as before
        # the resilience layer existed.
        data = json.loads(FailureDatabase().to_json())
        assert "quarantine" not in data

    def test_legacy_json_loads_without_quarantine(self):
        legacy = json.dumps({"disengagements": [], "accidents": [],
                             "mileage": []})
        assert len(FailureDatabase.from_json(legacy).quarantine) == 0


class TestChaosInjector:
    """The test-side injector (:func:`tests.faults.inject`)."""

    def test_other_stages_untouched(self):
        guard = StageGuard()
        with inject("parse", 1.0, 0):
            assert guard.run("ocr", "u", lambda: "x") == "x"
        assert guard.health.clean

    def test_exception_kind_raises_chaos_error(self):
        guard = StageGuard(FailurePolicy(mode="quarantine"))
        with inject("parse", 1.0, 0), \
                pytest.raises(QuarantinedError) as excinfo:
            guard.run("parse", "u", lambda: "x")
        assert isinstance(excinfo.value.__cause__, ChaosError)
        assert guard.quarantine.entries[0].error_type == "ChaosError"
        assert guard.quarantine.entries[0].message == (
            "injected fault at parse:u")

    def test_injection_is_seed_deterministic(self):
        def hits(seed):
            guard = StageGuard(FailurePolicy(mode="quarantine"))
            with inject("parse", 0.5, seed):
                for i in range(50):
                    try:
                        guard.run("parse", f"u{i}", lambda: "x")
                    except QuarantinedError:
                        pass
            return [entry.unit_id for entry in guard.quarantine]

        assert hits(1) == hits(1)
        assert hits(1) != hits(2)
        rate = len(hits(1)) / 50
        assert 0.2 < rate < 0.8


def _nissan_config(**overrides):
    defaults = dict(seed=5, manufacturers=["Nissan"],
                    ocr_enabled=False, dictionary_mode="seed")
    defaults.update(overrides)
    return PipelineConfig(**defaults)


def _injected_run(stage, rate, config):
    """``run_pipeline(config)`` with faults injected at ``stage``."""
    with inject(stage, rate, config.seed):
        return run_pipeline(config)


class TestResilientPipeline:
    def test_clean_run_is_byte_identical_and_healthy(self):
        baseline = run_pipeline(_nissan_config())
        again = run_pipeline(_nissan_config(failure_policy="threshold"))
        assert baseline.database.to_json() == again.database.to_json()
        assert baseline.diagnostics.health.clean
        assert "quarantine" not in json.loads(
            baseline.database.to_json())

    # Seed 12 makes the 10% channel hit both disengagement and
    # accident documents of the full corpus (2 + 4 of 58 units).
    CHAOS_10PCT = dict(seed=12, ocr_enabled=False,
                       dictionary_mode="seed")

    def test_parse_chaos_quarantine_completes(self, corpus):
        # The acceptance scenario: 10% exception rate in the parse
        # stage under quarantine completes end to end and keeps every
        # record from the non-quarantined documents.
        config = PipelineConfig(failure_policy="quarantine",
                                **self.CHAOS_10PCT)
        with inject("parse", 0.10, config.seed):
            result = process_corpus(corpus, config)
        health = result.diagnostics.health
        db = result.database

        clean = process_corpus(
            corpus, PipelineConfig(**self.CHAOS_10PCT))
        assert health.total_quarantined > 0
        assert health.stage("parse").errors == \
            health.total_quarantined
        assert len(db.quarantine) == health.total_quarantined
        # Every record whose document was not quarantined survives.
        lost_docs = {entry.unit_id for entry in db.quarantine
                     if entry.stage == "parse"}
        expected = [r for r in clean.database.disengagements
                    if r.source_document not in lost_docs]
        assert len(db.disengagements) == len(expected)
        assert len(db.disengagements) < \
            len(clean.database.disengagements)
        assert len(db.accidents) < len(clean.database.accidents)

    def test_parse_chaos_fail_fast_raises(self, corpus):
        config = PipelineConfig(failure_policy="fail_fast",
                                **self.CHAOS_10PCT)
        with inject("parse", 0.10, config.seed), \
                pytest.raises(PipelineError):
            process_corpus(corpus, config)

    def test_dictionary_chaos_falls_back_to_seeds(self):
        config = _nissan_config(dictionary_mode="expanded")
        with pytest.warns(DegradedModeWarning):
            result = _injected_run("dictionary", 1.0, config)
        health = result.diagnostics.health
        assert health.stage("dictionary").degradations == 1
        assert any("dictionary" in event
                   for event in health.degradation_events)
        # The seed dictionary still tags everything.
        assert all(r.tag is not None
                   for r in result.database.disengagements)

    def test_threshold_policy_aborts_heavy_chaos(self, corpus):
        # 90% parse failures blow through a 50% threshold as soon as
        # MIN_SAMPLES (20) attempts accumulate.
        config = PipelineConfig(failure_policy="threshold",
                                max_error_rate=0.5, **self.CHAOS_10PCT)
        with inject("parse", 0.9, config.seed), \
                pytest.raises(PipelineError):
            process_corpus(corpus, config)

    def test_health_summary_is_json_friendly(self):
        result = _injected_run("parse", 0.3, _nissan_config())
        summary = result.diagnostics.health.summary()
        json.dumps(summary)  # must serialize
        assert summary["quarantined"] == \
            result.diagnostics.health.total_quarantined
        assert "parse" in summary["stages"]


def _fingerprint_sans_tracebacks(database) -> str:
    """The database's digest with quarantine tracebacks left out: they
    name the source files by absolute path."""
    data = json.loads(database.to_json())
    for entry in data["quarantine"]:
        del entry["traceback"]
    return hashlib.sha256(
        json.dumps(data, sort_keys=True).encode()).hexdigest()


class TestPolicyPins:
    """What each failure policy does to a run, pinned.

    The seed-5 Nissan run without OCR (``_nissan_config``) has three
    parse units and 135 tagged records; the threshold abort needs the
    full seed-5 corpus, whose 58 parse units pass ``MIN_SAMPLES``.
    Messages, counters and digests are literals, so they fix what a
    run does rather than compare two ways of running it.
    """

    SMALL_FINGERPRINT = (
        "980c15b0bc3145aeefa9300a632d2d01b0bc3b1d0566984cc7f1dbecc4eb7f17")
    CHAOS_FINGERPRINT = (
        "f16ed54dd5012c18dcfc2ae5d38d60d82c5262214d754a4071b98250842ad2d9")

    def test_small_run_fingerprint_pinned(self):
        result = run_pipeline(_nissan_config())
        assert result.database.fingerprint() == self.SMALL_FINGERPRINT

    def test_parse_chaos_quarantine_pinned(self):
        result = _injected_run("parse", 0.3, _nissan_config())
        assert len(result.database.quarantine) > 0
        assert (_fingerprint_sans_tracebacks(result.database)
                == self.CHAOS_FINGERPRINT)

    def test_parse_chaos_saves_byte_identically(self, tmp_path):
        # Two injected runs save the same bytes; the file loads back
        # to its sidecar's fingerprint and re-encodes to its bytes.
        paths = [tmp_path / f"chaos-{run}.json" for run in "ab"]
        for path in paths:
            _injected_run("parse", 0.3, _nissan_config(
                failure_policy="quarantine")).database.save(path)
        assert paths[0].read_bytes() == paths[1].read_bytes()
        db = FailureDatabase.load(paths[0])
        assert db.quarantine
        sidecar = paths[0].with_name(paths[0].name + ".sha256")
        assert db.fingerprint() == sidecar.read_text().split()[0]
        assert db.to_json().encode() == paths[0].read_bytes()

    def test_fail_fast_message_pinned(self):
        with pytest.raises(PipelineError) as excinfo:
            _injected_run("parse", 0.3,
                          _nissan_config(failure_policy="fail_fast"))
        assert str(excinfo.value) == (
            "stage 'parse' failed on 'Nissan-2015-2016-disengagements' "
            "under fail_fast policy: injected fault at "
            "parse:Nissan-2015-2016-disengagements")

    def test_threshold_abort_message_pinned(self):
        # The error rate is checked at each quarantine once 20 parse
        # attempts have accumulated; the first quarantine after that
        # is the 24th attempt, the run's ninth parse failure.
        corpus = generate_corpus(seed=5)
        config = PipelineConfig(
            seed=5, ocr_enabled=False, dictionary_mode="seed",
            failure_policy="threshold", max_error_rate=0.05)
        with inject("parse", 0.3, config.seed), \
                pytest.raises(PipelineError) as excinfo:
            process_corpus(corpus, config)
        assert str(excinfo.value) == (
            "stage 'parse' error rate 37.5% exceeds the 5.0% threshold "
            "after 24 attempts (9 errors)")

    def test_parse_chaos_health_pinned(self):
        # Tagging runs unguarded, so the health has no ``tag`` stage.
        result = _injected_run("parse", 0.3, _nissan_config())
        clean = {"attempts": 1, "degradations": 0, "error_rate": 0.0,
                 "errors": 0, "quarantined": 0}
        assert result.diagnostics.health.summary() == {
            "clean": False,
            "errors": 1,
            "degradations": 0,
            "quarantined": 1,
            "stages": {
                "dictionary": clean,
                "normalize": clean,
                "ocr": {**clean, "attempts": 3},
                "parse": {"attempts": 3, "degradations": 0,
                          "error_rate": 1 / 3, "errors": 1,
                          "quarantined": 1},
            },
            "degradation_events": [],
            "checkpoint": {
                "enabled": False, "resumed": False,
                "restored_units": 0, "recomputed_units": 0,
                "artifacts_restored": 0, "corrupt_entries": 0,
                "stale": False, "stale_reason": None, "notes": [],
            },
        }


class TestHealthRendering:
    def test_clean_render(self):
        from repro.pipeline.resilience import RunHealth
        from repro.reporting.summary import render_run_health

        text = render_run_health(RunHealth())
        assert "clean" in text

    def test_dirty_render_names_stages_and_units(self):
        from repro.reporting.summary import render_run_health

        guard = StageGuard(FailurePolicy(mode="quarantine"))
        with pytest.raises(QuarantinedError):
            guard.run("parse", "doc-3", _failing())
        text = render_run_health(guard.health, guard.quarantine)
        assert "parse" in text
        assert "doc-3" in text
        assert "RuntimeError" in text
