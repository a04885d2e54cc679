"""Tests for full corpus assembly (Stage I)."""

import pytest

from repro.synth.dataset import generate_corpus


class TestCorpus:
    def test_headline_totals(self, corpus):
        assert len(corpus.truth_disengagements()) == 5328
        assert len(corpus.truth_accidents()) == 42
        assert sum(m.miles for m in corpus.truth_mileage()) == \
            pytest.approx(1116605.0, rel=1e-3)

    def test_one_accident_document_per_accident(self, corpus):
        assert len(corpus.accident_documents) == 42

    def test_disengagement_documents_cover_active_manufacturers(
            self, corpus):
        names = {d.manufacturer for d in corpus.disengagement_documents}
        # Honda tested nothing; everyone else filed something.
        assert "Honda" not in names
        assert {"Waymo", "Bosch", "Nissan", "Tesla"} <= names

    def test_documents_have_text(self, corpus):
        for document in corpus.documents:
            assert document.lines
            assert document.text.count("\n") == len(document.lines) - 1

    def test_truth_records_point_at_their_lines(self, corpus):
        for document in corpus.disengagement_documents:
            for record in document.truth_disengagements:
                assert record.source_document == document.document_id
                line = document.lines[record.source_line]
                assert line.strip()

    def test_manufacturer_subset_generation(self):
        corpus = generate_corpus(seed=1, manufacturers=["Tesla"])
        assert corpus.manufacturers() == ["Tesla"]
        assert len(corpus.truth_disengagements()) == 182

    def test_determinism_across_generations(self):
        a = generate_corpus(seed=99, manufacturers=["Nissan"])
        b = generate_corpus(seed=99, manufacturers=["Nissan"])
        assert [d.text for d in a.documents] == \
            [d.text for d in b.documents]

    def test_different_seeds_differ(self):
        a = generate_corpus(seed=1, manufacturers=["Nissan"])
        b = generate_corpus(seed=2, manufacturers=["Nissan"])
        assert [d.text for d in a.documents] != \
            [d.text for d in b.documents]

    def test_volkswagen_only_first_period(self, corpus):
        documents = [d for d in corpus.disengagement_documents
                     if d.manufacturer == "Volkswagen"]
        assert len(documents) == 1
        assert "2015-2016" in documents[0].document_id

    def test_tesla_only_second_period(self, corpus):
        documents = [d for d in corpus.disengagement_documents
                     if d.manufacturer == "Tesla"]
        assert len(documents) == 1
        assert "2016-2017" in documents[0].document_id
