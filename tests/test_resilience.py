"""Tests for the pipeline resilience layer and the chaos harness.

Covers the three failure-policy modes, bounded retry, quarantine
round-tripping, degradation fallbacks, the determinism contract (a
clean guarded run is byte-identical to an unguarded one), and the
acceptance scenario: a chaos run injecting a 10% exception rate into
the parse stage.
"""

import hashlib
import json

import pytest

from repro.errors import (
    DegradedModeWarning,
    ParseError,
    PipelineError,
    QuarantinedError,
    ReproError,
    TransientError,
)
from repro.pipeline.chaos import (
    ChaosConfig,
    ChaosError,
    ChaosInjector,
    _corrupt,
)
from repro.pipeline.config import PipelineConfig
from repro.pipeline.resilience import (
    FailurePolicy,
    Quarantine,
    QuarantineEntry,
    StageGuard,
    retry_transient,
)
from repro.pipeline.runner import process_corpus, run_pipeline
from repro.pipeline.store import FailureDatabase
from repro.rng import child_generator
from repro.synth.dataset import generate_corpus
from repro.taxonomy import FaultTag


class TestFailurePolicy:
    def test_defaults(self):
        policy = FailurePolicy()
        assert policy.mode == "quarantine"
        assert policy.max_retries == 2

    @pytest.mark.parametrize("kwargs", [
        {"mode": "panic"},
        {"max_error_rate": 1.5},
        {"max_error_rate": -0.1},
        {"max_retries": -1},
        {"min_samples": 0},
    ])
    def test_invalid_knobs_rejected(self, kwargs):
        with pytest.raises(ValueError):
            FailurePolicy(**kwargs)

    def test_config_resolves_policy(self):
        config = PipelineConfig(failure_policy="threshold",
                                max_error_rate=0.25, max_retries=5)
        policy = config.resolved_policy()
        assert policy.mode == "threshold"
        assert policy.max_error_rate == 0.25
        assert policy.max_retries == 5

    def test_config_rejects_unknown_policy(self):
        with pytest.raises(ValueError):
            PipelineConfig(failure_policy="telepathy")


class TestRetryTransient:
    def test_clean_call_passes_through(self):
        assert retry_transient(lambda: 42, retries=3) == 42

    def test_transient_fault_retried_to_success(self):
        attempts = []

        def flaky():
            attempts.append(1)
            if len(attempts) < 3:
                raise TransientError("not yet")
            return "ok"

        assert retry_transient(flaky, retries=3) == "ok"
        assert len(attempts) == 3

    def test_retries_exhausted_reraises(self):
        def always():
            raise TransientError("never")

        with pytest.raises(TransientError):
            retry_transient(always, retries=2)

    def test_permanent_fault_not_retried(self):
        attempts = []

        def broken():
            attempts.append(1)
            raise ValueError("permanent")

        with pytest.raises(ValueError):
            retry_transient(broken, retries=5)
        assert len(attempts) == 1


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

    def test_all_guard_failures_catchable_as_repro_error(self):
        # The hierarchy contract: whatever mode, a failure surfaced by
        # the resilience layer is a ReproError.
        for mode in ("fail_fast", "quarantine", "threshold"):
            guard = StageGuard(FailurePolicy(mode=mode, min_samples=1,
                                             max_error_rate=0.0))
            with pytest.raises(ReproError):
                guard.run("stage", "u1", _failing())

    def test_fallback_degrades_instead_of_quarantining(self):
        guard = StageGuard(FailurePolicy(mode="quarantine"))
        value = guard.run("tag", "r1", _failing(), fallback=lambda: -1)
        assert value == -1
        stats = guard.health.stage("tag")
        assert stats.errors == 1
        assert stats.degradations == 1
        assert stats.quarantined == 0
        assert len(guard.quarantine) == 0
        assert guard.health.degradation_events

    def test_fallback_ignored_under_fail_fast(self):
        guard = StageGuard(FailurePolicy(mode="fail_fast"))
        with pytest.raises(PipelineError):
            guard.run("tag", "r1", _failing(), fallback=lambda: -1)

    def test_transient_fault_retried_then_counted(self):
        guard = StageGuard(FailurePolicy(max_retries=2))
        attempts = []

        def flaky():
            attempts.append(1)
            if len(attempts) < 2:
                raise TransientError("blip")
            return "ok"

        assert guard.run("stage", "u1", flaky) == "ok"
        stats = guard.health.stage("stage")
        assert stats.retries == 1
        assert stats.errors == 0

    def test_threshold_aborts_at_exactly_the_configured_rate(self):
        # max_error_rate is a strict bound: a stage sitting exactly at
        # the configured rate keeps going; the first error that pushes
        # it over aborts the run.
        policy = FailurePolicy(mode="threshold", max_error_rate=0.5,
                               min_samples=2)
        guard = StageGuard(policy)
        # Error 1/1: 100%, but below min_samples -> quarantined only.
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

    def test_threshold_respects_min_samples(self):
        policy = FailurePolicy(mode="threshold", max_error_rate=0.1,
                               min_samples=5)
        guard = StageGuard(policy)
        # One early failure is 100% error rate but below min_samples.
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
        quarantine = Quarantine()
        quarantine.add(QuarantineEntry("d1", "parse", "ValueError",
                                       "m", "tb"))
        quarantine.add(QuarantineEntry("d2", "parse", "KeyError",
                                       "m", "tb"))
        quarantine.add(QuarantineEntry("d3", "ocr", "OSError",
                                       "m", "tb"))
        assert quarantine.by_stage() == {"ocr": 1, "parse": 2}
        assert quarantine.unit_ids("parse") == ["d1", "d2"]

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
    def test_other_stages_untouched(self):
        injector = ChaosInjector(ChaosConfig(stage="parse", rate=1.0))
        func = lambda: "x"  # noqa: E731
        assert injector.wrap("ocr", "u", func) is func

    def test_exception_kind_raises_chaos_error(self):
        injector = ChaosInjector(ChaosConfig(stage="parse", rate=1.0))
        with pytest.raises(ChaosError):
            injector.wrap("parse", "u", lambda: "x")()
        assert injector.injected == 1

    def test_transient_kind_raises_transient_error(self):
        injector = ChaosInjector(ChaosConfig(
            stage="parse", rate=1.0, kind="transient"))
        with pytest.raises(TransientError):
            injector.wrap("parse", "u", lambda: "x")()

    def test_latency_kind_returns_value(self):
        injector = ChaosInjector(ChaosConfig(
            stage="parse", rate=1.0, kind="latency", latency_s=0.0))
        assert injector.wrap("parse", "u", lambda: "x")() == "x"

    def test_corruption_kind_garbles_lines(self):
        injector = ChaosInjector(ChaosConfig(
            stage="ocr", rate=1.0, kind="corruption"))
        lines = injector.wrap("ocr", "u", lambda: ["aa", "bb"])()
        assert lines != ["aa", "bb"]
        assert len(lines) == 2

    def test_corrupt_fallback_shapes(self):
        rng = child_generator(0, "t")
        assert _corrupt("abc", rng) == "cba"
        assert _corrupt(123, rng) is None

    def test_injection_is_seed_deterministic(self):
        def hits(seed):
            injector = ChaosInjector(
                ChaosConfig(stage="parse", rate=0.5), seed=seed)
            out = []
            for i in range(50):
                try:
                    injector.wrap("parse", f"u{i}", lambda: "x")()
                    out.append(False)
                except ChaosError:
                    out.append(True)
            return out

        assert hits(1) == hits(1)
        assert hits(1) != hits(2)
        rate = sum(hits(1)) / 50
        assert 0.2 < rate < 0.8

    def test_invalid_config_rejected(self):
        with pytest.raises(ValueError):
            ChaosConfig(stage="parse", kind="gremlins")
        with pytest.raises(ValueError):
            ChaosConfig(stage="parse", rate=1.5)
        with pytest.raises(ValueError):
            ChaosConfig(stage="parse", latency_s=-1)


def _nissan_config(**overrides):
    defaults = dict(seed=5, manufacturers=["Nissan"],
                    ocr_enabled=False, dictionary_mode="seed")
    defaults.update(overrides)
    return PipelineConfig(**defaults)


class TestResilientPipeline:
    def test_clean_run_is_byte_identical_and_healthy(self):
        baseline = run_pipeline(_nissan_config())
        again = run_pipeline(_nissan_config(max_retries=5,
                                            failure_policy="threshold"))
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
        chaos = ChaosConfig(stage="parse", rate=0.10)
        config = PipelineConfig(failure_policy="quarantine",
                                chaos=chaos, **self.CHAOS_10PCT)
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
        lost_docs = set(db.quarantine.unit_ids("parse"))
        expected = [r for r in clean.database.disengagements
                    if r.source_document not in lost_docs]
        assert len(db.disengagements) == len(expected)
        assert len(db.disengagements) < \
            len(clean.database.disengagements)
        assert len(db.accidents) < len(clean.database.accidents)

    def test_parse_chaos_fail_fast_raises(self, corpus):
        chaos = ChaosConfig(stage="parse", rate=0.10)
        config = PipelineConfig(failure_policy="fail_fast",
                                chaos=chaos, **self.CHAOS_10PCT)
        with pytest.raises(PipelineError):
            process_corpus(corpus, config)

    def test_tagger_chaos_degrades_to_unknown(self):
        chaos = ChaosConfig(stage="tag", rate=0.2)
        result = run_pipeline(_nissan_config(chaos=chaos))
        health = result.diagnostics.health
        assert health.stage("tag").degradations > 0
        assert health.total_quarantined == 0  # degraded, not lost
        assert len(result.database.disengagements) == 135
        degraded = [r for r in result.database.disengagements
                    if r.tag is FaultTag.UNKNOWN]
        assert len(degraded) >= health.stage("tag").degradations

    def test_dictionary_chaos_falls_back_to_seeds(self):
        chaos = ChaosConfig(stage="dictionary", rate=1.0)
        config = _nissan_config(dictionary_mode="expanded",
                                chaos=chaos)
        with pytest.warns(DegradedModeWarning):
            result = run_pipeline(config)
        health = result.diagnostics.health
        assert health.stage("dictionary").degradations == 1
        assert any("dictionary" in event
                   for event in health.degradation_events)
        # The seed dictionary still tags everything.
        assert all(r.tag is not None
                   for r in result.database.disengagements)

    def test_transient_chaos_survived_by_retries(self):
        chaos = ChaosConfig(stage="parse", rate=0.3,
                            kind="transient")
        result = run_pipeline(_nissan_config(chaos=chaos,
                                             max_retries=8))
        health = result.diagnostics.health
        assert health.total_retries > 0
        # With 8 re-rolls at 30%, every document eventually parses.
        assert len(result.database.disengagements) == 135

    def test_transient_chaos_without_retries_quarantines(self):
        chaos = ChaosConfig(stage="parse", rate=0.3,
                            kind="transient")
        result = run_pipeline(_nissan_config(chaos=chaos,
                                             max_retries=0))
        assert result.diagnostics.health.total_quarantined > 0

    def test_threshold_policy_aborts_heavy_chaos(self, corpus):
        # 90% parse failures blow through a 50% threshold as soon as
        # min_samples (20) attempts accumulate.
        chaos = ChaosConfig(stage="parse", rate=0.9)
        config = PipelineConfig(failure_policy="threshold",
                                max_error_rate=0.5, chaos=chaos,
                                **self.CHAOS_10PCT)
        with pytest.raises(PipelineError):
            process_corpus(corpus, config)

    def test_health_summary_is_json_friendly(self):
        chaos = ChaosConfig(stage="tag", rate=0.2)
        result = run_pipeline(_nissan_config(chaos=chaos))
        summary = result.diagnostics.health.summary()
        json.dumps(summary)  # must serialize
        assert summary["degradations"] == \
            result.diagnostics.health.total_degradations
        assert "tag" in summary["stages"]


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
    full seed-5 corpus, whose 58 parse units pass ``min_samples``.
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
        chaos = ChaosConfig(stage="parse", rate=0.3, kind="exception")
        result = run_pipeline(_nissan_config(chaos=chaos))
        assert len(result.database.quarantine) > 0
        assert (_fingerprint_sans_tracebacks(result.database)
                == self.CHAOS_FINGERPRINT)

    def test_fail_fast_message_pinned(self):
        chaos = ChaosConfig(stage="parse", rate=0.3, kind="exception")
        with pytest.raises(PipelineError) as excinfo:
            run_pipeline(_nissan_config(chaos=chaos,
                                        failure_policy="fail_fast"))
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
            chaos=ChaosConfig(stage="parse", rate=0.3,
                              kind="exception"),
            failure_policy="threshold", max_error_rate=0.05)
        with pytest.raises(PipelineError) as excinfo:
            process_corpus(corpus, config)
        assert str(excinfo.value) == (
            "stage 'parse' error rate 37.5% exceeds the 5.0% threshold "
            "after 24 attempts (9 errors)")

    def test_tag_transient_health_pinned(self):
        chaos = ChaosConfig(stage="tag", rate=0.4, kind="transient")
        result = run_pipeline(_nissan_config(chaos=chaos))
        clean = {"attempts": 1, "degradations": 0, "error_rate": 0.0,
                 "errors": 0, "quarantined": 0, "retries": 0}
        degraded = [
            f"tag: {unit} degraded after TransientError: injected "
            f"transient fault at tag:{unit}"
            for unit in ("Nissan-2015-2016-disengagements:116",
                         "Nissan-2015-2016-disengagements:149",
                         "Nissan-2015-2016-disengagements:159",
                         "Nissan-2016-2017-disengagements:57")]
        assert result.diagnostics.health.summary() == {
            "clean": False,
            "errors": 4,
            "retries": 78,
            "degradations": 4,
            "quarantined": 0,
            "stages": {
                "dictionary": clean,
                "normalize": clean,
                "ocr": {**clean, "attempts": 3},
                "parse": {**clean, "attempts": 3},
                "tag": {"attempts": 135, "degradations": 4,
                        "error_rate": 4 / 135, "errors": 4,
                        "quarantined": 0, "retries": 78},
            },
            "degradation_events": degraded,
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
