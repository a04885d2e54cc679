"""Robustness tests: hostile inputs through the pipeline, dictionary
persistence, and the upper-quartile perception claim."""

import pytest

from repro.nlp.dictionary import FailureDictionary
from repro.pipeline.config import PipelineConfig
from repro.pipeline.runner import process_corpus
from repro.synth.dataset import generate_corpus
from repro.synth.reports import RawDocument
from repro.taxonomy import FailureCategory, category_of


class TestHostileDocuments:
    def test_garbage_disengagement_document_is_skipped(self):
        corpus = generate_corpus(seed=5, manufacturers=["Nissan"])
        corpus.documents.append(RawDocument(
            document_id="garbage-1", manufacturer="???",
            kind="disengagement",
            lines=["completely", "unparseable", "noise", "@@@@"]))
        result = process_corpus(corpus, PipelineConfig(
            seed=5, ocr_enabled=False, dictionary_mode="seed"))
        # The good document still parses fully.
        assert len(result.database.disengagements) == 135

    def test_garbage_accident_document_is_skipped(self):
        corpus = generate_corpus(seed=5, manufacturers=["Nissan"])
        corpus.documents.append(RawDocument(
            document_id="garbage-2", manufacturer="???",
            kind="accident", lines=["not", "an", "OL316"]))
        result = process_corpus(corpus, PipelineConfig(
            seed=5, ocr_enabled=False, dictionary_mode="seed"))
        assert len(result.database.accidents) == 1  # Nissan's real one

    def test_empty_document_is_harmless(self):
        corpus = generate_corpus(seed=5, manufacturers=["Nissan"])
        corpus.documents.append(RawDocument(
            document_id="empty", manufacturer="Nissan",
            kind="disengagement", lines=[]))
        result = process_corpus(corpus, PipelineConfig(
            seed=5, ocr_enabled=False, dictionary_mode="seed"))
        assert len(result.database.disengagements) == 135

    def test_empty_corpus(self):
        from repro.synth.dataset import SyntheticCorpus

        result = process_corpus(SyntheticCorpus(seed=0),
                                PipelineConfig(seed=0))
        assert result.database.disengagements == []
        assert result.database.accidents == []


class TestDictionaryPersistence:
    def test_json_roundtrip(self):
        original = FailureDictionary.from_seeds()
        clone = FailureDictionary.from_json(original.to_json())
        assert len(clone) == len(original)
        originals = {(e.phrase, e.tag, e.source)
                     for e in original.entries}
        clones = {(e.phrase, e.tag, e.source) for e in clone.entries}
        assert originals == clones

    def test_roundtrip_preserves_matching(self, db):
        texts = [r.description for r in db.disengagements][:500]
        built = FailureDictionary.build(texts)
        clone = FailureDictionary.from_json(built.to_json())
        from repro.nlp.tagger import VotingTagger

        a = VotingTagger(built)
        b = VotingTagger(clone)
        for text in texts[:50]:
            assert a.tag(text).tag == b.tag(text).tag


class TestUpperQuartileClaim:
    def test_perception_drives_upper_dpm_quartiles(self, paper_rows):
        """Paper: "the perception-based machine learning faults are
        responsible for DPM measurements in the upper three
        quartiles"."""
        paper_rows.check("fig4-waymo-upper-quartiles-perception")

    def test_unknown_category_is_small_outside_tesla(self, db):
        unknown = sum(
            1 for r in db.disengagements
            if r.manufacturer != "Tesla" and r.tag is not None
            and category_of(r.tag) is FailureCategory.UNKNOWN)
        total = sum(1 for r in db.disengagements
                    if r.manufacturer != "Tesla")
        assert unknown / total < 0.05
