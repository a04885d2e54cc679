"""The failure dictionary is built once per distinct token sequence, in
one canonical order.

:meth:`FailureDictionary.build` must learn exactly the entries of the
per-narrative loop kept in :mod:`tests.oracles` (same phrases, tags and
weights), list them in an order that does not depend on
``PYTHONHASHSEED``, and not rely on the token cache holding every
narrative.  The phrase-trie matcher is checked against the full scan
kept there too.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.nlp import dictionary as dictionary_module
from repro.nlp import textcache
from repro.nlp.dictionary import DictionaryEntry, FailureDictionary
from repro.nlp.ngrams import all_ngrams, distinct_ngrams
from repro.nlp.tagger import VotingTagger
from repro.nlp.textcache import TokenCache, cached_tokens
from repro.pipeline.config import PipelineConfig
from repro.pipeline.runner import process_corpus
from repro.synth.dataset import generate_corpus
from repro.taxonomy import FaultTag

from .oracles import (
    build_per_narrative,
    match_linear,
    pass1_tag,
)

SRC = Path(__file__).resolve().parent.parent / "src"


@pytest.fixture(scope="module")
def texts():
    """The narratives of the seed-5 Nissan+Bosch run, duplicates kept."""
    corpus = generate_corpus(5, ["Nissan", "Bosch"])
    result = process_corpus(corpus, PipelineConfig(
        seed=5, manufacturers=["Nissan", "Bosch"], ocr_enabled=False))
    return [r.description for r in result.database.disengagements]


@pytest.fixture(scope="module")
def built(texts):
    return FailureDictionary.build(texts)


def _entry_key(entry: DictionaryEntry) -> tuple:
    return entry.phrase, entry.tag, entry.weight, entry.source


class TestHashSeedIndependence:
    _BUILD = (
        "import hashlib, json, sys\n"
        "from repro.nlp.dictionary import FailureDictionary\n"
        "texts = json.load(open(sys.argv[1]))\n"
        "text = FailureDictionary.build(texts).to_json()\n"
        "print(hashlib.sha256(text.encode()).hexdigest())\n")

    def test_to_json_equal_under_two_hash_seeds(self, texts, built,
                                                tmp_path):
        path = tmp_path / "texts.json"
        path.write_text(json.dumps(texts))
        digests = []
        for hash_seed in ("0", "1"):
            env = dict(os.environ, PYTHONHASHSEED=hash_seed,
                       PYTHONPATH=str(SRC))
            out = subprocess.run(
                [sys.executable, "-c", self._BUILD, str(path)],
                env=env, capture_output=True, text=True, check=True)
            digests.append(out.stdout.strip())
        assert digests[0] == digests[1]
        assert digests[0] == hashlib.sha256(
            built.to_json().encode()).hexdigest()


class TestPerNarrativeOracle:
    def test_same_entries_as_a_set(self, texts, built):
        oracle = build_per_narrative(texts)
        assert len(built) == len(oracle)
        assert (Counter(map(_entry_key, built.entries))
                == Counter(map(_entry_key, oracle.entries)))
        assert any(e.source == "learned" for e in built.entries)

    def test_same_entries_when_tied_tags_pass(self, texts, monkeypatch):
        # At purity <= 0.5 a phrase whose top tags tie can be learned,
        # so the tag that wins the tie (the first counted) shows.
        loose = dict(min_count=1, purity=0.5, boilerplate_df=1.0)
        for name, value in loose.items():
            monkeypatch.setattr(dictionary_module, name.upper(), value)
        ours = FailureDictionary.build(texts)
        oracle = build_per_narrative(texts, **loose)
        assert (Counter(map(_entry_key, ours.entries))
                == Counter(map(_entry_key, oracle.entries)))

    def test_learned_entries_in_first_occurrence_order(self, texts,
                                                       built):
        # Pass 2 counts the phrases of narratives the seed vote tagged,
        # so learned entries follow those phrases' first occurrences.
        seeds = FailureDictionary.from_seeds()
        first_seen: dict[tuple[str, ...], int] = {}
        for tokens in map(cached_tokens, texts):
            if pass1_tag(seeds, tokens) is None:
                continue
            for phrase in all_ngrams(tokens):
                first_seen.setdefault(phrase, len(first_seen))
        positions = [first_seen[e.phrase] for e in built.entries
                     if e.source == "learned"]
        assert positions and positions == sorted(positions)

    def test_voting_tagger_agrees_on_every_narrative(self, texts, built):
        oracle = build_per_narrative(texts)
        ours = VotingTagger(built).tag_batch(texts)
        theirs = VotingTagger(oracle).tag_batch(texts)
        for a, b in zip(ours, theirs):
            assert (a.tag, a.category, a.confident) == (
                b.tag, b.category, b.confident)
            # Entries sharing a first token match in insertion order,
            # so only the order of matches and of their float sums
            # may differ.
            assert Counter(a.matches) == Counter(b.matches)
            assert a.scores == pytest.approx(b.scores, rel=1e-12)


class TestTinyTokenCache:
    def test_capacity_one_builds_the_same_dictionary(self, texts, built,
                                                     monkeypatch):
        monkeypatch.setattr(textcache, "_CACHE", TokenCache(capacity=1))
        assert FailureDictionary.build(texts).to_json() == built.to_json()


class TestPhraseCandidates:
    def test_counts_each_phrase_once_per_document(self):
        # The dictionary's document frequencies count the phrases
        # ``distinct_ngrams`` gives: each once, in first-occurrence
        # order.
        assert distinct_ngrams(["a", "b", "a", "b"], 2) == [
            ("a",), ("b",), ("a", "b"), ("b", "a")]


_WORDS = ["lidar", "can", "bus", "sun", "glare", "x", "planner"]
_PHRASES = st.lists(st.sampled_from(_WORDS), min_size=1, max_size=5)
_TAGS = st.sampled_from(list(FaultTag))
#: Few tags and words, so the same (phrase, tag) is often added twice.
_ADDS = st.lists(st.tuples(
    st.lists(st.sampled_from(_WORDS[:4]), min_size=1, max_size=5),
    st.sampled_from([FaultTag.SENSOR, FaultTag.NETWORK])), max_size=16)
_TOKENS = st.lists(st.sampled_from(_WORDS), max_size=20)


def _added(adds) -> FailureDictionary:
    """A dictionary built by ``add``, entry ``i`` weighing ``i``."""
    dictionary = FailureDictionary()
    for i, (phrase, tag) in enumerate(adds):
        dictionary.add(DictionaryEntry(
            phrase=tuple(phrase), tag=tag, weight=float(i), source="seed"))
    return dictionary


def _assert_matches_full_scan(dictionary, tokens):
    for sequence in (list(tokens), tuple(tokens)):
        assert dictionary.match(sequence) == match_linear(dictionary,
                                                          sequence)


class TestIndexedMatchOracle:
    """The phrase trie finds what a scan of every entry finds, in the
    same order (vote sums are floats, so their order matters)."""

    @settings(max_examples=300, deadline=None)
    @given(entries=st.lists(st.tuples(_PHRASES, _TAGS), max_size=12),
           tokens=_TOKENS)
    def test_match_equals_full_scan(self, entries, tokens):
        _assert_matches_full_scan(_added(entries), tokens)

    @settings(max_examples=300, deadline=None)
    @given(adds=_ADDS, tokens=_TOKENS)
    def test_duplicate_adds_match_once(self, adds, tokens):
        dictionary = _added(adds)
        assert len(dictionary) == len(dict.fromkeys(
            (tuple(phrase), tag) for phrase, tag in adds))
        _assert_matches_full_scan(dictionary, tokens)

    @pytest.mark.parametrize("phrases", [
        [("can",), ("can", "bus"), ("can", "bus", "x")],
        [("can", "bus", "x"), ("can", "bus"), ("can",)],
        [("can", "bus"), ("sun",), ("can", "bus", "x", "sun", "glare"),
         ("can",), ("bus", "x"), ("can", "bus", "x")],
    ])
    def test_every_length_order(self, phrases):
        # A shorter phrase added after a longer one with the same first
        # tokens joins the longer one's node, and the reverse.
        dictionary = _added([(phrase, FaultTag.NETWORK)
                             for phrase in phrases])
        tokens = ["can", "bus", "x", "sun", "glare", "can", "bus"]
        assert len(dictionary.match(tokens)) == len(
            match_linear(dictionary, tokens)) >= len(phrases)
        _assert_matches_full_scan(dictionary, tokens)

    @settings(max_examples=200, deadline=None)
    @given(entries=st.lists(st.tuples(_PHRASES, _TAGS), max_size=12,
                            unique_by=lambda e: (tuple(e[0]), e[1])),
           tokens=_TOKENS)
    def test_entries_argument_matches_like_adds(self, entries, tokens):
        added = _added(entries)
        given_whole = FailureDictionary(entries=list(added.entries))
        assert given_whole.entries == added.entries
        for sequence in (list(tokens), tuple(tokens)):
            assert given_whole.match(sequence) == added.match(sequence)
