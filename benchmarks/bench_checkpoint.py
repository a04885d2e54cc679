"""Overhead of the checkpoint layer on a clean run.

Checkpointing journals every completed unit and fsyncs at stage
boundaries, so its cost on an *uninterrupted* run must stay under 5%
of the plain pipeline.  ``test_checkpointed_full_pipeline`` is
directly comparable to ``bench_resilience.test_resilient_full_pipeline``
(same workload, plus a checkpoint directory); the micro-benches
isolate the journal writer and the atomic-replace primitive.

Run as a script (``python benchmarks/bench_checkpoint.py``) to get a
self-contained overhead report that measures plain vs. checkpointed
wall time and asserts the <5% budget — this is what CI runs.
"""

import tempfile
from pathlib import Path

from repro.pipeline import PipelineConfig, process_corpus
from repro.pipeline.checkpoint import (
    CheckpointStore,
    atomic_write_text,
)
from repro.synth import generate_corpus

SEED = 2018
SUBSET = ["Nissan", "Volkswagen", "Delphi", "Tesla"]
OVERHEAD_BUDGET = 0.05


def _run(corpus, checkpoint_dir=None):
    return process_corpus(corpus, PipelineConfig(
        seed=SEED, manufacturers=SUBSET,
        checkpoint_dir=checkpoint_dir))


def test_checkpointed_full_pipeline(benchmark, tmp_path):
    corpus = generate_corpus(SEED, SUBSET)

    def run():
        # A fresh subdirectory per round: each run journals from
        # scratch, like a real first run.
        with tempfile.TemporaryDirectory(dir=tmp_path) as scratch:
            return _run(corpus, Path(scratch) / "ckpt")

    result = benchmark(run)
    assert len(result.database.disengagements) > 1000
    assert result.diagnostics.health.checkpoint.enabled


def test_journal_append_micro(benchmark, tmp_path):
    store = CheckpointStore(tmp_path, "bench")
    store.open(resume=False)
    body = {"outcome": "ok", "tag": "software", "category": "other"}

    def append_units():
        for index in range(2_000):
            store.append("tags", f"unit-{index}", body)
        store.sync()

    benchmark(append_units)
    store.close()


def test_atomic_write_micro(benchmark, tmp_path):
    target = tmp_path / "artifact.json"
    text = "x" * 65536

    def write():
        atomic_write_text(target, text)

    benchmark(write)
    assert target.read_text() == text


def main() -> int:
    """Measure checkpoint overhead and enforce the <5% budget."""
    import time

    corpus = generate_corpus(SEED, SUBSET)
    _run(corpus)  # warm caches before timing anything

    def timed(func):
        start = time.perf_counter()
        func()
        return time.perf_counter() - start

    # Interleave the two variants so background load hits both
    # equally, and compare best-of-N to shed scheduling noise (on a
    # 2-vCPU box the plain run takes 0.10-0.13s and checkpointing
    # adds 16-32ms, about the spread of a single measurement on a
    # shared machine).
    plain_times, checkpointed_times = [], []
    with tempfile.TemporaryDirectory() as scratch:
        for round_index in range(9):
            plain_times.append(timed(lambda: _run(corpus)))
            checkpointed_times.append(timed(lambda: _run(
                corpus, Path(scratch) / f"ckpt-{round_index}")))
    plain = min(plain_times)
    checkpointed = min(checkpointed_times)

    overhead = checkpointed / plain - 1.0
    print(f"plain run:        {plain:.3f}s")
    print(f"checkpointed run: {checkpointed:.3f}s")
    print(f"overhead:         {overhead:+.1%} "
          f"(budget {OVERHEAD_BUDGET:.0%})")
    if overhead > OVERHEAD_BUDGET:
        print("FAIL: checkpoint overhead exceeds budget")
        return 1
    print("OK: checkpoint overhead within budget")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
