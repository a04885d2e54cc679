"""End-to-end pipeline stage benchmarks.

Times each stage of Fig. 1 in isolation (synthesis, OCR channel,
parsing, NLP tagging) plus the whole pipeline, over a mid-size
manufacturer subset.
"""

from repro.nlp.dictionary import FailureDictionary
from repro.nlp.tagger import VotingTagger
from repro.ocr.correction import OcrCorrector
from repro.ocr.engine import OcrEngine
from repro.ocr.fallback import ManualTranscriptionQueue, apply_fallback
from repro.ocr.scanner import Scanner
from repro.parsing.base import default_registry
from repro.pipeline.config import PipelineConfig
from repro.pipeline.runner import process_corpus
from repro.rng import child_generator
from repro.synth.dataset import generate_corpus

SEED = 2018
SUBSET = ["Nissan", "Volkswagen", "Delphi", "Tesla"]


def test_stage1_synthesis(benchmark):
    corpus = benchmark(generate_corpus, SEED, SUBSET)
    assert len(corpus.truth_disengagements()) == 135 + 260 + 572 + 182


def test_stage2_ocr_channel(benchmark):
    corpus = generate_corpus(SEED, SUBSET)
    scanner, engine = Scanner(), OcrEngine()
    corrector = OcrCorrector()

    def run_ocr():
        total = 0
        queue = ManualTranscriptionQueue()
        for document in corpus.disengagement_documents:
            rng = child_generator(SEED, f"ocr:{document.document_id}")
            scanned = scanner.scan(document.document_id,
                                   document.lines, rng)
            result = engine.recognize(scanned, rng)
            lines = apply_fallback(scanned, result, queue)
            total += len(corrector.correct_lines(lines))
        return total

    lines = benchmark(run_ocr)
    assert lines > 1000


def test_stage3_parsing(benchmark):
    corpus = generate_corpus(SEED, SUBSET)
    registry = default_registry()

    def run_parse():
        total = 0
        for document in corpus.disengagement_documents:
            parser = registry.resolve(document.lines)
            report = parser.parse(document.lines,
                                  document.document_id)
            total += len(report.disengagements)
        return total

    recovered = benchmark(run_parse)
    assert recovered == 135 + 260 + 572 + 182


def test_stage4_nlp_tagging(benchmark):
    corpus = generate_corpus(SEED, SUBSET)
    texts = [r.description for r in corpus.truth_disengagements()]
    tagger = VotingTagger(FailureDictionary.build(texts))

    def run_tagging():
        return [tagger.tag(text).tag for text in texts]

    tags = benchmark(run_tagging)
    assert len(tags) == len(texts)


def test_full_pipeline(benchmark):
    corpus = generate_corpus(SEED, SUBSET)
    config = PipelineConfig(seed=SEED, manufacturers=SUBSET)
    result = benchmark(process_corpus, corpus, config)
    assert len(result.database.disengagements) > 1000
