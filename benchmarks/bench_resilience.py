"""Overhead of the resilience layer.

The guard wraps every per-document step and the dictionary build, so
its cost on a *clean* run must be negligible (< 5% vs. the seed
``bench_pipeline_stages`` numbers).  ``test_resilient_full_pipeline``
is directly comparable to that bench's ``test_full_pipeline``; the
micro-bench isolates the guard itself.
"""

from repro.pipeline.config import PipelineConfig
from repro.pipeline.resilience import FailurePolicy, StageGuard
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

