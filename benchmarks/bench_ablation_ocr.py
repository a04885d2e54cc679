"""Ablation: the post-OCR correction pass on vs. off.

Measures parse yield (records recovered) with and without the
correction pass, holding the scan noise fixed.
"""

from repro.pipeline.config import PipelineConfig
from repro.pipeline.runner import process_corpus
from repro.synth.dataset import generate_corpus

from conftest import write_exhibit

SEED = 2018
MANUFACTURERS = ["Nissan", "Volkswagen", "Mercedes-Benz", "Tesla"]


def _yield_with(correction_enabled: bool) -> tuple[int, float]:
    corpus = generate_corpus(SEED, MANUFACTURERS)
    config = PipelineConfig(
        seed=SEED, manufacturers=MANUFACTURERS,
        correction_enabled=correction_enabled)
    result = process_corpus(corpus, config)
    truth = len(corpus.truth_disengagements())
    recovered = len(result.database.disengagements)
    accuracy = result.diagnostics.tagging.tag_accuracy
    return recovered, truth, accuracy


def test_ablation_ocr_correction(benchmark, exhibit_dir):
    on_recovered, truth, on_accuracy = _yield_with(True)
    off_recovered, _, off_accuracy = _yield_with(False)

    report = "\n".join([
        "Ablation: post-OCR correction pass",
        f"  correction ON:  {on_recovered}/{truth} records "
        f"({100 * on_recovered / truth:.2f}%), tag accuracy "
        f"{on_accuracy:.4f}",
        f"  correction OFF: {off_recovered}/{truth} records "
        f"({100 * off_recovered / truth:.2f}%), tag accuracy "
        f"{off_accuracy:.4f}",
    ])
    write_exhibit(exhibit_dir, "ablation_ocr", report)

    # Correction must not hurt, and should help at least one metric.
    assert on_recovered >= off_recovered
    assert on_accuracy >= off_accuracy - 0.005
    assert (on_recovered > off_recovered
            or on_accuracy > off_accuracy)

    benchmark(_yield_with, True)
