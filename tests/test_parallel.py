"""Tests for the deterministic multi-worker fan-out and the tagger
hot path.

The acceptance bar: a run with ``--workers N`` (any N) saves a
FailureDatabase **byte-identical** to a serial run — under the
quarantine policy, under chaos injection, and through a crash ->
resume cycle — and the serial runs themselves match fingerprints
pinned from the pre-executor serial loop.  Plus unit coverage for the
worker/merge plumbing, the inverted dictionary index, and the token
memo.
"""

from __future__ import annotations

import hashlib
import json
import pickle
import warnings

import pytest

from repro.errors import PipelineError
from repro.nlp.dictionary import DictionaryEntry, FailureDictionary
from repro.nlp.tagger import FirstMatchTagger, VotingTagger
from repro.nlp.textcache import TokenCache, cached_tokens, token_cache
from repro.obs.metrics import (
    BATCH_PAYLOAD_BYTES_TOTAL,
    BATCH_TASKS_TOTAL,
    BATCH_UNITS_TOTAL,
    DEGRADATIONS_TOTAL,
    QUARANTINED_TOTAL,
    RETRIES_TOTAL,
    STAGE_ERRORS_TOTAL,
    UNITS_TOTAL,
)
from repro.pipeline import (
    ChaosConfig,
    CrashPoint,
    PipelineConfig,
    ParallelStats,
    SimulatedCrash,
    config_fingerprint,
    process_corpus,
)
from repro.pipeline.parallel import (
    BATCH_AUTO_CHUNKS_PER_WORKER,
    BATCH_SIZE_CLAMP,
    FANNED_STAGES,
    UnitOutcome,
    resolve_batch_size,
    worker_config,
)
from repro.synth import generate_corpus
from repro.taxonomy import FaultTag

from .oracles import match_linear

SEED = 5

SMALL = dict(seed=SEED, manufacturers=["Nissan"], ocr_enabled=False,
             dictionary_mode="seed")

#: Fingerprints of the ``SMALL`` run and of its parse-chaos quarantine
#: variant, pinned from the serial loop that predates the in-process
#: executor, so the parity matrix keeps a reference that does not
#: depend on the code under test.  A quarantine entry's traceback
#: names the source files by absolute path, so the chaos pin is taken
#: without tracebacks (see :func:`_fingerprint_sans_tracebacks`).
SMALL_FINGERPRINT = (
    "980c15b0bc3145aeefa9300a632d2d01b0bc3b1d0566984cc7f1dbecc4eb7f17")
CHAOS_FINGERPRINT = (
    "f16ed54dd5012c18dcfc2ae5d38d60d82c5262214d754a4071b98250842ad2d9")


def _fingerprint_sans_tracebacks(database) -> str:
    data = json.loads(database.to_json())
    for entry in data["quarantine"]:
        del entry["traceback"]
    return hashlib.sha256(
        json.dumps(data, sort_keys=True).encode()).hexdigest()


@pytest.fixture(scope="module")
def corpus():
    return generate_corpus(seed=SEED, manufacturers=["Nissan"])


@pytest.fixture(scope="module")
def serial_json(corpus):
    result = process_corpus(corpus, PipelineConfig(**SMALL))
    return result.database.to_json()


def run_json(corpus, **overrides):
    params = {**SMALL, **overrides}
    return process_corpus(corpus, PipelineConfig(**params))


def stage_family(metrics: dict, name: str) -> dict[str, float]:
    """``stage -> value`` of one ``{stage}``-labelled counter family."""
    return {series["labels"]["stage"]: series["value"]
            for series in metrics[name]["series"]}


# ----------------------------------------------------------------------
# Config resolution.
# ----------------------------------------------------------------------

class TestConfig:
    def test_default_is_serial(self):
        assert PipelineConfig().resolved_parallelism() == (0, "serial")

    @pytest.mark.parametrize("workers", [1, 2, 8])
    def test_any_worker_count_is_a_process_pool(self, workers):
        assert PipelineConfig(
            workers=workers).resolved_parallelism() == (workers, "process")

    def test_negative_workers_rejected(self):
        with pytest.raises(ValueError, match="workers"):
            PipelineConfig(workers=-1)

    def test_worker_config_strips_coordinator_concerns(self, tmp_path):
        config = PipelineConfig(
            **SMALL, workers=4, checkpoint_dir=tmp_path,
            crash=CrashPoint(at="tag"))
        stripped = worker_config(config)
        assert stripped.workers == 0
        assert stripped.crash is None
        assert stripped.checkpoint_dir is None
        assert not stripped.resume
        # the knobs that shape output survive
        assert stripped.seed == config.seed
        assert stripped.failure_policy == config.failure_policy

    def test_worker_config_strips_batch_size(self):
        # Chunking is a coordinator decision; the worker payload must
        # be identical at every batch size.
        config = PipelineConfig(**SMALL, workers=4, batch_size=7)
        assert worker_config(config).batch_size is None

    @pytest.mark.parametrize("bad", [0, -1, -100])
    def test_batch_size_below_one_rejected(self, bad):
        with pytest.raises(ValueError, match="batch_size"):
            PipelineConfig(batch_size=bad)

    def test_batch_size_one_and_auto_accepted(self):
        assert PipelineConfig(batch_size=1).batch_size == 1
        assert PipelineConfig(batch_size=None).batch_size is None

    def test_batch_size_excluded_from_fingerprint(self):
        # Like workers, batch size is an execution
        # strategy with byte-identical output — a resume may change
        # it and still adopt the pre-crash checkpoints.
        plain = config_fingerprint(PipelineConfig(**SMALL))
        batched = config_fingerprint(
            PipelineConfig(**SMALL, workers=2, batch_size=7))
        assert plain == batched


class TestResolveBatchSize:
    def test_explicit_size_wins(self):
        assert resolve_batch_size(7, 1000, workers=4) == 7

    def test_auto_targets_chunks_per_worker(self):
        n, workers = 800, 2
        size = resolve_batch_size(None, n, workers)
        assert size == n // (workers * BATCH_AUTO_CHUNKS_PER_WORKER)

    def test_auto_rounds_up(self):
        # 10 units / (2 workers * 4) -> ceil(1.25) = 2 per chunk.
        assert resolve_batch_size(None, 10, workers=2) == 2

    def test_auto_clamped_to_cap(self):
        assert resolve_batch_size(None, 10 ** 6, workers=1) \
            == BATCH_SIZE_CLAMP

    def test_auto_never_below_one(self):
        assert resolve_batch_size(None, 1, workers=8) == 1
        assert resolve_batch_size(None, 0, workers=8) == 1


# ----------------------------------------------------------------------
# Determinism hammer: parallel output is byte-identical to serial.
# ----------------------------------------------------------------------

class TestDeterminism:
    def test_serial_fingerprint_pinned(self, corpus):
        assert run_json(corpus).database.fingerprint() == SMALL_FINGERPRINT

    @pytest.mark.parametrize("workers", [1, 2, 4, 8])
    def test_clean_run_byte_identical(self, corpus, serial_json,
                                      workers):
        result = run_json(corpus, workers=workers)
        assert result.database.to_json() == serial_json

    def test_ocr_enabled_byte_identical(self):
        corpus = generate_corpus(seed=9, manufacturers=["Waymo"])
        config = dict(seed=9)
        serial = process_corpus(corpus, PipelineConfig(**config))
        parallel = process_corpus(
            corpus, PipelineConfig(**config, workers=4))
        assert (parallel.database.to_json()
                == serial.database.to_json())
        # Sidecar OCR stats replay bit-identically too.
        assert vars(parallel.diagnostics.ocr) == vars(
            serial.diagnostics.ocr)

    def test_quarantine_chaos_byte_identical(self, corpus):
        chaos = ChaosConfig(stage="parse", rate=0.3, kind="exception")
        serial = run_json(corpus, chaos=chaos,
                          failure_policy="quarantine")
        parallel = run_json(corpus, chaos=chaos,
                            failure_policy="quarantine", workers=4)
        assert (_fingerprint_sans_tracebacks(serial.database)
                == CHAOS_FINGERPRINT)
        assert (parallel.database.to_json()
                == serial.database.to_json())
        assert len(serial.database.quarantine) > 0
        # Quarantine entries match field for field (incl. traceback).
        for ours, theirs in zip(parallel.database.quarantine,
                                serial.database.quarantine):
            assert ours == theirs

    def test_transient_chaos_health_parity(self, corpus):
        chaos = ChaosConfig(stage="tag", rate=0.4, kind="transient")
        serial = run_json(corpus, chaos=chaos)
        parallel = run_json(corpus, chaos=chaos, workers=4)
        assert (parallel.database.to_json()
                == serial.database.to_json())
        assert (parallel.diagnostics.health.summary()
                == serial.diagnostics.health.summary())
        assert serial.diagnostics.health.total_retries > 0

    def test_tagging_report_parity(self, corpus):
        serial = run_json(corpus)
        parallel = run_json(corpus, workers=2)
        assert parallel.diagnostics.tagging == serial.diagnostics.tagging


# ----------------------------------------------------------------------
# Chunked dispatch: byte-identical at every (workers, batch_size).
# ----------------------------------------------------------------------

class TestBatchedDispatch:
    @pytest.mark.parametrize("workers", [1, 2, 4])
    @pytest.mark.parametrize("batch_size", [1, 3, None, 10_000])
    def test_matrix_byte_identical(self, corpus, serial_json, workers,
                                   batch_size):
        with warnings.catch_warnings():
            # batch_size=10_000 exceeds the unit count by design; the
            # oversize warning has its own test below.
            warnings.simplefilter("ignore")
            result = run_json(corpus, workers=workers,
                              batch_size=batch_size)
        assert result.database.to_json() == serial_json

    def test_oversized_batch_warns_but_completes(self, corpus,
                                                 serial_json):
        with pytest.warns(UserWarning, match="batch_size"):
            result = run_json(corpus, workers=2, batch_size=10_000)
        assert result.database.to_json() == serial_json

    def test_auto_batch_never_warns(self, corpus, serial_json):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = run_json(corpus, workers=2)
        assert result.database.to_json() == serial_json

    def test_quarantine_mid_batch_byte_identical(self):
        # Six document units at rate=0.5 over chunks of 3 put
        # quarantined units at intra-chunk positions; entries must
        # match field for field (incl. traceback).
        corpus = generate_corpus(
            seed=7, manufacturers=["Nissan", "Volkswagen", "Delphi",
                                   "Tesla"])
        config = dict(seed=7, ocr_enabled=False,
                      dictionary_mode="seed",
                      chaos=ChaosConfig(stage="parse", rate=0.5,
                                        kind="exception"),
                      failure_policy="quarantine")
        serial = process_corpus(corpus, PipelineConfig(**config))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # 2 accident docs < 3
            batched = process_corpus(
                corpus, PipelineConfig(**config, workers=2,
                                       batch_size=3))
        assert (batched.database.to_json()
                == serial.database.to_json())
        assert len(serial.database.quarantine) > 1
        for ours, theirs in zip(batched.database.quarantine,
                                serial.database.quarantine):
            assert ours == theirs

    def test_transient_chaos_health_parity(self, corpus):
        chaos = ChaosConfig(stage="tag", rate=0.4, kind="transient")
        serial = run_json(corpus, chaos=chaos, metrics_enabled=True)
        batched = run_json(corpus, chaos=chaos, workers=2,
                           batch_size=3, metrics_enabled=True)
        assert (batched.database.to_json()
                == serial.database.to_json())
        assert (batched.diagnostics.health.summary()
                == serial.diagnostics.health.summary())
        # Metrics render from the same diagnostics, so they agree too.
        # The pool-only batch families, the token-cache counts (pool
        # processes keep private caches) and histogram sums differ by
        # design.
        for name in (UNITS_TOTAL, RETRIES_TOTAL, STAGE_ERRORS_TOTAL,
                     DEGRADATIONS_TOTAL, QUARANTINED_TOTAL):
            assert (stage_family(batched.diagnostics.metrics, name)
                    == stage_family(serial.diagnostics.metrics, name))
        retries = stage_family(serial.diagnostics.metrics, RETRIES_TOTAL)
        assert retries["tag"] > 0

    def test_fail_fast_mid_chunk_same_exception(self, corpus):
        # The failing unit lands mid-chunk; units after it in the
        # chunk must never run, so the raised error matches serial.
        chaos = ChaosConfig(stage="parse", rate=0.3, kind="exception")
        messages = []
        for overrides in ({}, {"workers": 2, "batch_size": 5}):
            with pytest.raises(PipelineError) as excinfo:
                run_json(corpus, chaos=chaos,
                         failure_policy="fail_fast", **overrides)
            messages.append(str(excinfo.value))
        assert messages[0] == messages[1]

    def test_threshold_abort_mid_batch(self, corpus):
        chaos = ChaosConfig(stage="parse", rate=0.9, kind="exception")
        outcomes = []
        for overrides in ({}, {"workers": 2, "batch_size": 4}):
            try:
                run_json(corpus, chaos=chaos,
                         failure_policy="threshold",
                         max_error_rate=0.05, **overrides)
                outcomes.append("completed")
            except PipelineError as exc:
                outcomes.append(str(exc))
        assert outcomes[0] == outcomes[1]

    @pytest.mark.parametrize("point", ["mid-parse-documents",
                                       "mid-tag"])
    def test_crash_mid_batch_resumes_identically(
            self, corpus, serial_json, tmp_path, point):
        # The kill lands mid-chunk; completed units buffered by the
        # journal batcher must survive the unwind so the resume skips
        # them, exactly as serial per-unit appends would.
        ckpt = tmp_path / point
        with pytest.raises(SimulatedCrash):
            run_json(corpus, workers=2, batch_size=3,
                     checkpoint_dir=ckpt, crash=CrashPoint(at=point))
        resumed = run_json(corpus, checkpoint_dir=ckpt, resume=True,
                           workers=2, batch_size=3)
        assert resumed.database.to_json() == serial_json
        assert resumed.diagnostics.health.checkpoint.restored_units > 0

    def test_batch_stats_populated(self, corpus):
        result = run_json(corpus, workers=2, batch_size=3)
        par = result.diagnostics.parallel
        assert par.batch_tasks > 0
        assert par.batch_size["tag"] == 3
        assert par.batch_size["parse-documents"] == 3
        summary = par.summary()
        assert summary["batch_tasks"] == par.batch_tasks
        assert summary["batch_size"]["tag"] == 3
        json.dumps(summary)  # JSON-friendly

    def test_auto_batch_size_recorded(self, corpus):
        result = run_json(corpus, workers=2)
        sizes = result.diagnostics.parallel.batch_size
        n_tagged = len(result.database.disengagements)
        assert sizes["tag"] == resolve_batch_size(None, n_tagged,
                                                  workers=2)

    def test_chunks_cut_task_count(self, corpus):
        per_unit = run_json(corpus, workers=2, batch_size=1)
        chunked = run_json(corpus, workers=2, batch_size=8)
        assert (chunked.diagnostics.parallel.batch_tasks
                < per_unit.diagnostics.parallel.batch_tasks)
        assert (chunked.diagnostics.parallel.parallel_units
                == per_unit.diagnostics.parallel.parallel_units)


# ----------------------------------------------------------------------
# Failure-policy semantics across the pool boundary.
# ----------------------------------------------------------------------

class TestPolicyParity:
    def test_fail_fast_same_exception(self, corpus):
        chaos = ChaosConfig(stage="parse", rate=0.3, kind="exception")
        messages = []
        for workers in (0, 4):
            with pytest.raises(PipelineError) as excinfo:
                run_json(corpus, chaos=chaos,
                         failure_policy="fail_fast", workers=workers)
            messages.append(str(excinfo.value))
        assert messages[0] == messages[1]

    def test_threshold_same_abort(self, corpus):
        chaos = ChaosConfig(stage="parse", rate=0.9, kind="exception")
        outcomes = []
        for workers in (0, 4):
            try:
                run_json(corpus, chaos=chaos,
                         failure_policy="threshold",
                         max_error_rate=0.05, workers=workers)
                outcomes.append("completed")
            except PipelineError as exc:
                outcomes.append(str(exc))
        assert outcomes[0] == outcomes[1]


# ----------------------------------------------------------------------
# Checkpointing and crash -> resume under workers.
# ----------------------------------------------------------------------

class TestCrashResume:
    def test_checkpointed_parallel_run(self, corpus, serial_json,
                                       tmp_path):
        result = run_json(corpus, workers=4, checkpoint_dir=tmp_path)
        assert result.database.to_json() == serial_json

    @pytest.mark.parametrize("point", ["mid-parse-documents",
                                       "mid-tag"])
    @pytest.mark.parametrize("resume_workers", [0, 4])
    def test_crash_under_workers_resumes_identically(
            self, corpus, serial_json, tmp_path, point,
            resume_workers):
        ckpt = tmp_path / point / str(resume_workers)
        with pytest.raises(SimulatedCrash):
            run_json(corpus, workers=4, checkpoint_dir=ckpt,
                     crash=CrashPoint(at=point))
        resumed = run_json(corpus, checkpoint_dir=ckpt, resume=True,
                           workers=resume_workers)
        assert resumed.database.to_json() == serial_json
        assert resumed.diagnostics.health.checkpoint.restored_units > 0

    def test_fully_restored_pooled_run_keeps_zero_batch_series(
            self, corpus, tmp_path):
        run_json(corpus, checkpoint_dir=tmp_path)
        resumed = run_json(corpus, checkpoint_dir=tmp_path, resume=True,
                           workers=2, metrics_enabled=True)
        assert resumed.diagnostics.parallel.batch_tasks == 0
        metrics = resumed.diagnostics.metrics
        for name in (BATCH_TASKS_TOTAL, BATCH_UNITS_TOTAL,
                     BATCH_PAYLOAD_BYTES_TOTAL):
            assert (stage_family(metrics, name)
                    == dict.fromkeys(FANNED_STAGES, 0.0))


# ----------------------------------------------------------------------
# Diagnostics.
# ----------------------------------------------------------------------

class TestParallelStats:
    def test_serial_run_reports_serial(self, corpus):
        result = run_json(corpus)
        par = result.diagnostics.parallel
        assert not par.enabled
        assert par.workers == 0 and par.mode == "serial"
        assert par.parallel_units == 0
        assert par.speedup_estimate is None
        # Stage wall times are recorded for serial runs too.
        assert "parse-documents" in par.stage_wall_s
        assert "tag" in par.stage_wall_s

    def test_parallel_run_populates_stats(self, corpus):
        result = run_json(corpus, workers=2)
        par = result.diagnostics.parallel
        assert par.enabled
        assert par.workers == 2 and par.mode == "process"
        docs = len(result.diagnostics.health.stages)  # sanity anchor
        assert docs > 0
        assert par.parallel_units == (
            result.diagnostics.parse.documents
            + len(result.database.quarantine)
            + len(result.database.accidents)
            + len(result.database.disengagements))
        assert par.unit_compute_s > 0.0
        assert par.parallel_wall_s > 0.0
        assert par.speedup_estimate is not None
        summary = par.summary()
        assert summary["workers"] == 2
        assert summary["mode"] == "process"
        json.dumps(summary)  # JSON-friendly


# ----------------------------------------------------------------------
# Dictionary inverted index.
# ----------------------------------------------------------------------

class TestDictionaryIndex:
    def test_match_equals_linear_reference(self, corpus):
        result = process_corpus(
            corpus, PipelineConfig(seed=SEED, ocr_enabled=False))
        texts = [r.description
                 for r in result.database.disengagements]
        dictionary = FailureDictionary.build(texts)
        for text in texts[:300]:
            tokens = cached_tokens(text)
            assert dictionary.match(tokens) == match_linear(dictionary,
                                                            tokens)

    def test_match_per_occurrence(self):
        dictionary = FailureDictionary()
        entry = DictionaryEntry(phrase=("lidar",),
                                tag=FaultTag.SENSOR,
                                weight=1.0, source="seed")
        dictionary.add(entry)
        assert dictionary.match(["lidar", "x", "lidar"]) == [entry,
                                                             entry]

    def test_add_is_idempotent(self):
        dictionary = FailureDictionary()
        entry = DictionaryEntry(phrase=("can", "bus"),
                                tag=FaultTag.NETWORK,
                                weight=1.0, source="seed")
        dictionary.add(entry)
        dictionary.add(DictionaryEntry(phrase=("can", "bus"),
                                       tag=FaultTag.NETWORK,
                                       weight=9.0, source="learned"))
        assert len(dictionary) == 1
        assert dictionary.entries[0].weight == 1.0

    def test_multiword_prefix_no_false_match(self):
        dictionary = FailureDictionary()
        dictionary.add(DictionaryEntry(phrase=("can", "bus"),
                                       tag=FaultTag.NETWORK,
                                       weight=1.0, source="seed"))
        assert dictionary.match(["can"]) == []
        assert dictionary.match(["can", "opener"]) == []
        assert len(dictionary.match(["can", "bus"])) == 1

    def test_match_at_start_positions_only(self):
        dictionary = FailureDictionary()
        entry = DictionaryEntry(phrase=("sun", "glare"),
                                tag=FaultTag.ENVIRONMENT,
                                weight=1.0, source="seed")
        dictionary.add(entry)
        tokens = ["bright", "sun", "glare"]
        assert dictionary.match_at(tokens, 1) == [entry]
        assert dictionary.match_at(tokens, 0) == []

    def test_from_json_roundtrip_preserves_order(self):
        dictionary = FailureDictionary.from_seeds()
        clone = FailureDictionary.from_json(dictionary.to_json())
        assert clone.entries == dictionary.entries
        tokens = cached_tokens("lidar returns degraded by sun glare")
        assert clone.match(tokens) == dictionary.match(tokens)

    def test_first_match_tagger_uses_earliest(self):
        dictionary = FailureDictionary()
        dictionary.add(DictionaryEntry(phrase=("lidar",),
                                       tag=FaultTag.SENSOR,
                                       weight=1.0, source="seed"))
        dictionary.add(DictionaryEntry(phrase=("planner",),
                                       tag=FaultTag.PLANNER,
                                       weight=5.0, source="seed"))
        tagger = FirstMatchTagger(dictionary)
        assert tagger.tag("planner ignored lidar").tag \
            == FaultTag.PLANNER
        assert tagger.tag("lidar confused planner").tag \
            == FaultTag.SENSOR
        assert tagger.tag("nothing matches here").tag \
            == FaultTag.UNKNOWN


# ----------------------------------------------------------------------
# Token memo.
# ----------------------------------------------------------------------

class TestTokenCache:
    def test_hit_returns_same_list(self):
        cache = TokenCache(capacity=4)
        first = cache.tokens("the lidar sensor failed")
        second = cache.tokens("the lidar sensor failed")
        assert first is second
        assert cache.hits == 1 and cache.misses == 1

    def test_capacity_is_bounded(self):
        cache = TokenCache(capacity=3)
        for i in range(10):
            cache.tokens(f"narrative number {i}")
        assert len(cache) == 3

    def test_lru_eviction_order(self):
        cache = TokenCache(capacity=2)
        a = cache.tokens("alpha narrative")
        cache.tokens("beta narrative")
        # Touch "alpha" so "beta" is the LRU victim.
        assert cache.tokens("alpha narrative") is a
        cache.tokens("gamma narrative")
        assert cache.tokens("alpha narrative") is a  # still resident
        assert cache.hits == 2

    def test_matches_uncached_normalization(self):
        from repro.nlp.normalize import normalize_tokens
        from repro.nlp.tokenize import tokenize

        text = "The LIDAR unit failed to detect the pedestrians."
        assert cached_tokens(text) == normalize_tokens(tokenize(text))

    def test_invalid_capacity_rejected(self):
        with pytest.raises(ValueError):
            TokenCache(capacity=0)

    def test_shared_cache_counts(self):
        shared = token_cache()
        before = shared.hits
        cached_tokens("a perfectly unique narrative about sun glare")
        cached_tokens("a perfectly unique narrative about sun glare")
        assert shared.hits >= before + 1

    def test_voting_tagger_uses_memo(self):
        dictionary = FailureDictionary.from_seeds()
        tagger = VotingTagger(dictionary)
        shared = token_cache()
        text = "sun glare blinded the forward camera on the ramp"
        tagger.tag(text)
        hits = shared.hits
        tagger.tag(text)
        assert shared.hits == hits + 1


class TestStatsDataclass:
    def test_speedup_estimate_guards_division(self):
        stats = ParallelStats(workers=2, mode="process",
                              unit_compute_s=1.0, parallel_wall_s=0.0)
        assert stats.speedup_estimate is None
        stats.parallel_wall_s = 0.5
        assert stats.speedup_estimate == pytest.approx(2.0)


class TestCompactOutcomes:
    def _outcome(self) -> UnitOutcome:
        return UnitOutcome(
            body={"tag": "software", "category": "machine"},
            health=({"tag": (1, 0, 0, 0, 0)}, []),
            elapsed=0.002)

    def test_pickle_round_trip(self):
        outcome = self._outcome()
        assert pickle.loads(pickle.dumps(outcome)) == outcome

    def test_no_instance_dict(self):
        assert not hasattr(self._outcome(), "__dict__")

    def test_smaller_than_dict_baseline(self):
        outcome = self._outcome()
        baseline = {
            "body": outcome.body,
            "health": {"stages": {"tag": [1, 0, 0, 0, 0]},
                       "events": []},
            "error": None, "ocr": None, "elapsed": outcome.elapsed,
            "injected": 0, "metrics": None}
        assert len(pickle.dumps(outcome)) < len(pickle.dumps(baseline))
