"""Tests for corpus disk I/O."""

import pytest

from repro.errors import SynthesisError
from repro.synth.dataset import generate_corpus
from repro.synth.io import read_corpus, write_corpus


@pytest.fixture(scope="module")
def small_disk_corpus(tmp_path_factory):
    corpus = generate_corpus(seed=3, manufacturers=["Nissan", "Tesla"])
    root = tmp_path_factory.mktemp("corpus")
    write_corpus(corpus, root)
    return corpus, root


def test_roundtrip_preserves_documents(small_disk_corpus):
    corpus, root = small_disk_corpus
    loaded = read_corpus(root)
    assert len(loaded.documents) == len(corpus.documents)
    for original, restored in zip(corpus.documents, loaded.documents):
        assert restored.document_id == original.document_id
        assert restored.manufacturer == original.manufacturer
        assert restored.kind == original.kind
        assert restored.lines == original.lines


def test_roundtrip_preserves_truth(small_disk_corpus):
    corpus, root = small_disk_corpus
    loaded = read_corpus(root)
    assert len(loaded.truth_disengagements()) == \
        len(corpus.truth_disengagements())
    original = corpus.truth_disengagements()[0]
    restored = loaded.truth_disengagements()[0]
    assert restored.truth_tag == original.truth_tag
    assert restored.description == original.description
    assert len(loaded.truth_accidents()) == \
        len(corpus.truth_accidents())
    assert sum(m.miles for m in loaded.truth_mileage()) == \
        pytest.approx(sum(m.miles for m in corpus.truth_mileage()))


def test_read_without_truth(small_disk_corpus):
    _, root = small_disk_corpus
    loaded = read_corpus(root, with_truth=False)
    assert loaded.truth_disengagements() == []
    assert loaded.documents  # text still available


def test_processing_a_disk_corpus(small_disk_corpus):
    from repro.pipeline.config import PipelineConfig
    from repro.pipeline.runner import process_corpus

    corpus, root = small_disk_corpus
    loaded = read_corpus(root)
    result = process_corpus(loaded, PipelineConfig(
        seed=3, ocr_enabled=False))
    assert len(result.database.disengagements) == \
        len(corpus.truth_disengagements())


def test_missing_manifest_raises(tmp_path):
    with pytest.raises(SynthesisError):
        read_corpus(tmp_path)


def test_write_creates_directories(tmp_path):
    corpus = generate_corpus(seed=4, manufacturers=["Ford"])
    root = write_corpus(corpus, tmp_path / "deep" / "nested")
    assert (root / "manifest.json").exists()
    assert (root / "documents").is_dir()
