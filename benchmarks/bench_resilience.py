"""Overhead of the resilience layer.

The guard wraps every per-document and per-record step, so its cost on
a *clean* run must be negligible (< 5% vs. the seed
``bench_pipeline_stages`` numbers).  ``test_resilient_full_pipeline``
is directly comparable to that bench's ``test_full_pipeline``; the
micro-benches isolate the guard and retry wrappers themselves, and the
chaos bench shows what a fault-heavy run costs.
"""

from repro.pipeline.chaos import ChaosConfig
from repro.pipeline.config import PipelineConfig
from repro.pipeline.resilience import (
    FailurePolicy,
    StageGuard,
    retry_transient,
)
from repro.pipeline.runner import process_corpus
from repro.synth.dataset import generate_corpus

SEED = 2018
SUBSET = ["Nissan", "Volkswagen", "Delphi", "Tesla"]


def test_resilient_full_pipeline(benchmark):
    # Identical workload to bench_pipeline_stages.test_full_pipeline;
    # the guard is always on, so the delta vs. the seed numbers IS the
    # resilience overhead.
    corpus = generate_corpus(SEED, SUBSET)
    config = PipelineConfig(seed=SEED, manufacturers=SUBSET)
    result = benchmark(process_corpus, corpus, config)
    assert len(result.database.disengagements) > 1000
    assert result.diagnostics.health.clean


def test_guard_clean_path_micro(benchmark):
    guard = StageGuard(FailurePolicy())
    func = lambda: 1  # noqa: E731

    def run_guarded():
        total = 0
        for _ in range(10_000):
            total += guard.run("bench", "unit", func)
        return total

    assert benchmark(run_guarded) == 10_000


def test_retry_clean_path_micro(benchmark):
    func = lambda: 1  # noqa: E731

    def run_retry():
        total = 0
        for _ in range(10_000):
            total += retry_transient(func, retries=2)
        return total

    assert benchmark(run_retry) == 10_000


def test_chaotic_pipeline_with_quarantine(benchmark):
    # A fault-heavy run: 10% parse failures under quarantine.  Not
    # comparable to the clean numbers; shows the cost of capturing
    # tracebacks and carrying on.
    corpus = generate_corpus(SEED, SUBSET)
    config = PipelineConfig(
        seed=12, manufacturers=SUBSET, ocr_enabled=False,
        failure_policy="quarantine",
        chaos=ChaosConfig(stage="parse", rate=0.10))
    result = benchmark(process_corpus, corpus, config)
    assert len(result.database.disengagements) > 0
