"""Tests for the NLP engine: tokenizer, dictionary, and taggers."""

import pytest

from repro.nlp.dictionary import (
    SEED_PHRASES,
    DictionaryEntry,
    FailureDictionary,
)
from repro.nlp.evaluation import evaluate_tagger
from repro.nlp.ngrams import ngrams
from repro.nlp.normalize import STOPWORDS, normalize_tokens
from repro.nlp.tagger import VotingTagger
from repro.nlp.tokenize import sentences, tokenize
from repro.parsing.records import DisengagementRecord
from repro.taxonomy import (
    ML_SUBCATEGORY,
    TAG_CATEGORY,
    TAG_DEFINITIONS,
    FailureCategory,
    FaultTag,
    category_of,
)


class TestTokenize:
    def test_basic(self):
        assert tokenize("The AV didn't see the lead vehicle.") == [
            "the", "av", "didn't", "see", "the", "lead", "vehicle"]

    def test_numbers_kept(self):
        assert "316" in tokenize("form OL 316")

    def test_sentences(self):
        text = "Module froze. Driver disengaged! All safe."
        assert sentences(text) == [
            "Module froze", "Driver disengaged", "All safe"]


class TestNormalize:
    def test_stopwords_dropped(self):
        tokens = normalize_tokens(tokenize(
            "the driver safely disengaged and resumed manual control"))
        assert tokens == []

    def test_stemming_unifies_inflections(self):
        a = normalize_tokens(["disengagements"], drop_stopwords=False)
        b = normalize_tokens(["disengagement"], drop_stopwords=False)
        assert a == b

    def test_short_words_not_destroyed(self):
        assert normalize_tokens(["bus"], drop_stopwords=False) == ["bus"]

    def test_boilerplate_is_stopworded(self):
        for word in ("driver", "vehicle", "manual", "control"):
            assert word in STOPWORDS


class TestNgrams:
    def test_bigrams(self):
        assert ngrams(["a", "b", "c"], 2) == [("a", "b"), ("b", "c")]

    def test_invalid_n(self):
        with pytest.raises(ValueError):
            ngrams(["a"], 0)


class TestDictionary:
    def test_seed_dictionary_covers_all_taggable_tags(self):
        dictionary = FailureDictionary.from_seeds()
        tagged = {entry.tag for entry in dictionary.entries}
        expected = set(FaultTag) - {FaultTag.UNKNOWN}
        assert tagged == expected

    def test_match_finds_phrases(self):
        dictionary = FailureDictionary.from_seeds()
        tokens = normalize_tokens(tokenize(
            "Takeover-Request — watchdog error"))
        matches = dictionary.match(tokens)
        assert any(m.tag is FaultTag.HANG_CRASH for m in matches)

    def test_add_is_idempotent(self):
        dictionary = FailureDictionary.from_seeds()
        before = len(dictionary)
        entry = dictionary.entries[0]
        dictionary.add(DictionaryEntry(
            phrase=entry.phrase, tag=entry.tag, weight=1.0,
            source="seed"))
        assert len(dictionary) == before

    def test_build_learns_new_phrases(self, corpus):
        texts = [r.description
                 for r in corpus.truth_disengagements()][:2000]
        built = FailureDictionary.build(texts)
        seeds = FailureDictionary.from_seeds()
        assert len(built) > len(seeds)
        assert any(e.source == "learned" for e in built.entries)

    def test_boilerplate_not_learned(self, corpus):
        texts = [r.description for r in corpus.truth_disengagements()]
        built = FailureDictionary.build(texts)
        for entry in built.entries:
            # The universal tail must never become a tag phrase.
            assert "resumed" not in entry.phrase


class TestVotingTagger:
    @pytest.fixture(scope="class")
    def tagger(self):
        return VotingTagger(FailureDictionary.from_seeds())

    @pytest.mark.parametrize("text,tag", [
        ("Software module froze. Driver safely disengaged.",
         FaultTag.SOFTWARE),
        ("The AV didn't see the lead vehicle", FaultTag.RECOGNITION_SYSTEM),
        ("Disengage for a recklessly behaving road user",
         FaultTag.ENVIRONMENT),
        ("Takeover-Request — watchdog error", FaultTag.HANG_CRASH),
        ("LIDAR failed to localize in time", FaultTag.SENSOR),
        ("Data rate too high to be handled by the network",
         FaultTag.NETWORK),
        ("Processor overload on the compute platform",
         FaultTag.COMPUTER_SYSTEM),
        ("AV was not designed to handle an unprotected left turn",
         FaultTag.DESIGN_BUG),
        ("Incorrect behavior prediction of an adjacent vehicle",
         FaultTag.INCORRECT_BEHAVIOR_PREDICTION),
        ("Planner failed to anticipate the other driver's behavior",
         FaultTag.PLANNER),
    ])
    def test_table2_style_examples(self, tagger, text, tag):
        assert tagger.tag(text).tag is tag

    def test_unmatched_text_is_unknown(self, tagger):
        result = tagger.tag("Driver disengaged")
        assert result.tag is FaultTag.UNKNOWN
        assert result.category is FailureCategory.UNKNOWN
        assert not result.confident

    def test_result_carries_scores_and_matches(self, tagger):
        result = tagger.tag("Software module froze")
        assert result.scores[FaultTag.SOFTWARE] > 0
        assert result.matches

    def test_tie_break_is_deterministic(self, tagger):
        text = ("Software module froze — watchdog error — LIDAR "
                "failed to localize in time")
        results = {tagger.tag(text).tag for _ in range(5)}
        assert len(results) == 1


class TestEvaluation:
    def _records(self):
        return [
            DisengagementRecord(
                manufacturer="X", month="2015-01",
                description="Software module froze",
                truth_tag=FaultTag.SOFTWARE),
            DisengagementRecord(
                manufacturer="X", month="2015-01",
                description="watchdog error",
                truth_tag=FaultTag.HANG_CRASH),
            DisengagementRecord(
                manufacturer="X", month="2015-01",
                description="mysterious event",
                truth_tag=FaultTag.SOFTWARE),
        ]

    def test_report_counts(self):
        tagger = VotingTagger(FailureDictionary.from_seeds())
        report = evaluate_tagger(tagger, self._records())
        assert report.total == 3
        assert report.correct_tag == 2
        assert report.tag_accuracy == pytest.approx(2 / 3)

    def test_category_accuracy_at_least_tag_accuracy(self):
        tagger = VotingTagger(FailureDictionary.from_seeds())
        report = evaluate_tagger(tagger, self._records())
        assert report.category_accuracy >= report.tag_accuracy

    def test_precision_recall(self):
        tagger = VotingTagger(FailureDictionary.from_seeds())
        report = evaluate_tagger(tagger, self._records())
        assert report.recall(FaultTag.SOFTWARE) == pytest.approx(0.5)
        assert report.precision(FaultTag.SOFTWARE) == pytest.approx(1.0)
        assert 0 < report.f1(FaultTag.SOFTWARE) < 1

    def test_confusions_reported(self):
        tagger = VotingTagger(FailureDictionary.from_seeds())
        report = evaluate_tagger(tagger, self._records())
        confusions = dict(report.top_confusions())
        assert confusions[(FaultTag.SOFTWARE, FaultTag.UNKNOWN)] == 1

    def test_records_without_truth_skipped(self):
        tagger = VotingTagger(FailureDictionary.from_seeds())
        records = [DisengagementRecord(
            manufacturer="X", month="2015-01", description="abc")]
        assert evaluate_tagger(tagger, records).total == 0


class TestOntology:
    """The Table III ontology the tagger's tags map into
    (:mod:`repro.taxonomy`)."""

    def test_validate_passes(self):
        assert set(TAG_CATEGORY) == set(TAG_DEFINITIONS) == set(FaultTag)
        for tag in ML_SUBCATEGORY:
            assert TAG_CATEGORY[tag] is FailureCategory.ML_DESIGN

    def test_category_lookup(self):
        assert category_of(FaultTag.SOFTWARE) is FailureCategory.SYSTEM

    def test_definitions_nonempty(self):
        for tag in FaultTag:
            assert TAG_DEFINITIONS[tag]

    def test_tags_in_category(self):
        system_tags = [tag for tag in FaultTag
                       if category_of(tag) is FailureCategory.SYSTEM]
        assert FaultTag.SOFTWARE in system_tags
        assert FaultTag.PLANNER not in system_tags


# ----------------------------------------------------------------------
# Batch-native tagging: tag_batch is provably the per-unit loop.
# ----------------------------------------------------------------------

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from repro.nlp.textcache import (  # noqa: E402
    TokenCache,
    cached_tokens,
    cached_tokens_batch,
)

from .oracles import evaluate_per_record, vote_reference  # noqa: E402

#: Every word that appears in a seed phrase, plus filler — so random
#: narratives exercise matches, multi-phrase votes, ties, and misses.
_VOCAB = sorted({word
                 for phrases in SEED_PHRASES.values()
                 for phrase in phrases
                 for word in phrase.split()}
                | {"the", "a", "vehicle", "unexpectedly", "zzz"})

narratives = st.lists(
    st.lists(st.sampled_from(_VOCAB), min_size=0, max_size=12)
    .map(" ".join),
    min_size=0, max_size=20)


class TestBatchTagging:
    @pytest.fixture(scope="class")
    def dictionary(self):
        return FailureDictionary.from_seeds()

    @settings(max_examples=60, deadline=None)
    @given(texts=narratives)
    def test_voting_tag_batch_equals_per_unit_loop(self, dictionary,
                                                   texts):
        tagger = VotingTagger(dictionary)
        assert tagger.tag_batch(texts) == [tagger.tag(t)
                                           for t in texts]

    def test_empty_batch(self, dictionary):
        assert VotingTagger(dictionary).tag_batch([]) == []

    def test_duplicates_share_results(self, dictionary):
        # Duplicate narratives have one token sequence, so the batch
        # hands back the very same TagResult.
        tagger = VotingTagger(dictionary)
        text = "sun glare blinded the forward camera"
        results = tagger.tag_batch([text, "debris on road", text])
        assert results[0] is results[2]
        assert results[0] == tagger.tag(text)

    def test_same_token_sequence_shares_one_result(self, dictionary):
        # Case, punctuation and stopwords aside, these are one narrative.
        tagger = VotingTagger(dictionary)
        texts = ["The LIDAR failed.", "lidar failed"]
        assert cached_tokens(texts[0]) == cached_tokens(texts[1])
        results = tagger.tag_batch(texts)
        assert results[0] is results[1]
        assert results[0] == tagger.tag(texts[0]) == tagger.tag(texts[1])
        assert results[0].tag is FaultTag.SENSOR

    @settings(max_examples=100, deadline=None)
    @given(texts=narratives)
    def test_vote_equals_counter_ranking(self, dictionary, texts):
        tagger = VotingTagger(dictionary)
        for text in texts:
            assert tagger.tag(text) == vote_reference(
                dictionary.match(cached_tokens(text)))

    def test_evaluation_uses_batch_path(self, dictionary):
        # evaluate_tagger prefers tag_batch when present; parity with
        # the per-unit loop keeps the report identical either way.
        records = [
            DisengagementRecord(
                manufacturer="X", month="2018-01", description=text,
                truth_tag=FaultTag.ENVIRONMENT)
            for text in ("sun glare ahead", "debris in lane",
                         "heavy rain on sensors")]
        tagger = VotingTagger(dictionary)
        report = evaluate_tagger(tagger, records)
        assert report.total == 3
        assert report.correct_tag == 3


#: Three tags of two categories, so pairs repeat and categories agree
#: across different tags.
_FEW_TAGS = st.sampled_from([FaultTag.SENSOR, FaultTag.NETWORK,
                             FaultTag.PLANNER])
_records = st.lists(st.builds(
    lambda truth, tag: DisengagementRecord(
        manufacturer="X", month="2018-01", truth_tag=truth, tag=tag),
    st.one_of(st.none(), _FEW_TAGS), _FEW_TAGS), max_size=40)


class TestEvaluationTallies:
    @settings(max_examples=100, deadline=None)
    @given(records=_records)
    def test_equals_per_record_loop(self, records):
        ours = evaluate_tagger(None, records)
        theirs = evaluate_per_record(records)
        assert ours == theirs
        # Reports list tags in the order the records first name them.
        for name in ("confusion", "per_tag_truth", "per_tag_hits",
                     "per_tag_predicted"):
            assert list(getattr(ours, name).items()) == list(
                getattr(theirs, name).items())


class TestTokensBatch:
    @settings(max_examples=60, deadline=None)
    @given(texts=narratives)
    def test_batch_equals_per_text_calls(self, texts):
        assert cached_tokens_batch(texts) == [cached_tokens(t)
                                              for t in texts]

    def test_duplicates_return_same_list_object(self):
        cache = TokenCache(capacity=8)
        text = "lidar returns degraded by sun glare"
        first, second = cache.tokens_batch([text, text])
        assert first is second

    def test_hit_miss_accounting_matches_sequential(self):
        # First occurrence of an uncached text is a miss; later
        # duplicates in the same batch are hits — exactly as N
        # sequential tokens() calls would count.
        batch = ["alpha beta", "gamma delta", "alpha beta"]
        batched = TokenCache(capacity=8)
        batched.tokens_batch(batch)
        sequential = TokenCache(capacity=8)
        for text in batch:
            sequential.tokens(text)
        assert batched.stats() == sequential.stats()

    def test_empty_batch(self):
        assert TokenCache(capacity=4).tokens_batch([]) == []


# ----------------------------------------------------------------------
# Dictionary phrase index and the token memo.
# ----------------------------------------------------------------------

from repro.nlp.textcache import token_cache  # noqa: E402
from repro.pipeline.config import PipelineConfig  # noqa: E402
from repro.pipeline.runner import process_corpus  # noqa: E402
from repro.synth.dataset import generate_corpus  # noqa: E402

from .oracles import match_linear  # noqa: E402

#: Seed of the corpus the phrase-index parity test matches against.
SEED = 5


class TestDictionaryIndex:
    @pytest.fixture(scope="class")
    def corpus(self):
        return generate_corpus(seed=SEED, manufacturers=["Nissan"])

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

    def test_from_json_roundtrip_preserves_order(self):
        dictionary = FailureDictionary.from_seeds()
        clone = FailureDictionary.from_json(dictionary.to_json())
        assert clone.entries == dictionary.entries
        tokens = cached_tokens("lidar returns degraded by sun glare")
        assert clone.match(tokens) == dictionary.match(tokens)


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
