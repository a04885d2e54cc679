"""Overhead of the observability layer on the pipeline hot path.

The contract (docs/ARCHITECTURE.md, "Observability"): with tracing
and metrics fully enabled a run must cost <5% over an uninstrumented
one, and with observability disabled (the default) the instrumentation
must be a true no-op — the null tracer, not a cheap real one, and no
metrics rendered at the end of the run — so the disabled run is
indistinguishable from the pre-observability pipeline.

Run as a script (``python benchmarks/bench_obs.py``) to get a
self-contained report that measures off vs. fully-on wall time,
asserts the <5% budget, and verifies the instrumented database is
byte-identical to the plain one — this is what CI runs.  The pytest
benches isolate the span and counter primitives.
"""

import tempfile
from pathlib import Path

from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import Tracer
from repro.pipeline.config import PipelineConfig
from repro.pipeline.runner import process_corpus
from repro.synth.dataset import generate_corpus

SEED = 2018
SUBSET = ["Nissan", "Volkswagen", "Delphi", "Tesla"]
OVERHEAD_BUDGET = 0.05


def _run(corpus, trace_dir=None, metrics=False):
    return process_corpus(corpus, PipelineConfig(
        seed=SEED, manufacturers=SUBSET,
        trace_dir=trace_dir, metrics_enabled=metrics))


def test_instrumented_full_pipeline(benchmark, tmp_path):
    corpus = generate_corpus(SEED, SUBSET)

    def run():
        with tempfile.TemporaryDirectory(dir=tmp_path) as scratch:
            return _run(corpus, trace_dir=Path(scratch), metrics=True)

    result = benchmark(run)
    assert len(result.database.disengagements) > 1000
    assert result.diagnostics.metrics is not None


def test_span_enter_exit_micro(benchmark, tmp_path):
    tracer = Tracer(tmp_path / "t.jsonl")

    def spans():
        for _ in range(2_000):
            with tracer.span("unit", kind="unit", stage="tag"):
                pass

    benchmark(spans)


def test_counter_inc_micro(benchmark):
    registry = MetricsRegistry()
    series = registry.counter("c_total", labelnames=("stage",)).labels(
        "tag")

    def incs():
        for _ in range(10_000):
            series.inc()

    benchmark(incs)


def test_histogram_observe_micro(benchmark):
    registry = MetricsRegistry()
    histogram = registry.histogram("h_seconds")

    def observes():
        for index in range(10_000):
            histogram.observe(index * 1e-4)

    benchmark(observes)


def main() -> int:
    """Measure observability overhead and enforce the <5% budget."""
    import time

    corpus = generate_corpus(SEED, SUBSET)
    _run(corpus)  # warm caches before timing anything

    def timed(func):
        start = time.perf_counter()
        result = func()
        return time.perf_counter() - start, result

    # Interleave the variants so background load hits both equally
    # and compare best-of-N to shed scheduling noise (the span and
    # counter costs are microseconds per unit on a ~600ms run).
    off_times, on_times = [], []
    instrumented = None
    with tempfile.TemporaryDirectory() as scratch:
        for round_index in range(9):
            elapsed, plain = timed(lambda: _run(corpus))
            off_times.append(elapsed)
            trace_dir = Path(scratch) / f"trace-{round_index}"
            trace_dir.mkdir()
            elapsed, instrumented = timed(
                lambda: _run(corpus, trace_dir=trace_dir,
                             metrics=True))
            on_times.append(elapsed)
    off = min(off_times)
    on = min(on_times)

    if plain.database.to_json() != instrumented.database.to_json():
        print("FAIL: instrumented run altered the pipeline output")
        return 1

    overhead = on / off - 1.0
    print(f"observability off: {off:.3f}s")
    print(f"trace + metrics:   {on:.3f}s")
    print(f"overhead:          {overhead:+.1%} "
          f"(budget {OVERHEAD_BUDGET:.0%})")
    if overhead > OVERHEAD_BUDGET:
        print("FAIL: observability overhead exceeds budget")
        return 1
    print("OK: output byte-identical, overhead within budget")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
