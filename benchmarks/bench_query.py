"""Latency of the query & serving layer on the seed database.

Measures p50/p99 end-to-end HTTP latency for the five endpoint
families (``/v1/healthz``, ``/v1/stats``, ``/v1/manufacturers``,
``/v1/metrics/*``, ``/v1/query``) with a cold result cache (``cache_size=0``
— every request recomputes) and a warm one, plus the recorded budget
this layer exists for:

    **a warm-cache grouped DPM query must be ≥10× faster than the
    equivalent full-scan analysis call** (``manufacturer_dpm_summary``
    over the whole database).

Run as a script (``python benchmarks/bench_query.py``) for the
self-contained report + budget assertion — this is what CI runs.  The
pytest-benchmark entry points time the engine paths individually.
"""

from __future__ import annotations

import json
import time
import urllib.request

from repro.analysis.dpm import manufacturer_dpm_summary
from repro.pipeline.config import PipelineConfig
from repro.pipeline.runner import run_pipeline
from repro.query.engine import Query, QueryEngine
from repro.query.server import QueryServer
from repro.rng import DEFAULT_SEED

SPEEDUP_BUDGET = 10.0

#: One representative request per endpoint family.
ENDPOINT_FAMILIES = {
    "healthz": "/v1/healthz",
    "stats": "/v1/stats",
    "manufacturers": "/v1/manufacturers",
    "metrics": "/v1/metrics/dpm",
    "query": "/v1/query?metric=categories",
}


def _seed_database():
    return run_pipeline(PipelineConfig(seed=DEFAULT_SEED)).database


def _fetch(url: str) -> None:
    with urllib.request.urlopen(url, timeout=30) as response:
        json.loads(response.read())


def _sample_ms(fn, rounds: int) -> list[float]:
    samples = []
    for _ in range(rounds):
        started = time.perf_counter()
        fn()
        samples.append((time.perf_counter() - started) * 1e3)
    return sorted(samples)


def _percentile(sorted_samples: list[float], q: float) -> float:
    index = min(len(sorted_samples) - 1,
                round(q * (len(sorted_samples) - 1)))
    return sorted_samples[index]


# ----------------------------------------------------------------------
# pytest-benchmark entry points (engine-level, no HTTP).
# ----------------------------------------------------------------------


def test_cold_grouped_dpm(benchmark, db):
    engine = QueryEngine(db, cache_size=0)  # every call recomputes
    query = Query(metric="dpm")
    result = benchmark(lambda: engine.execute(query))
    assert result.value and not result.cached


def test_warm_grouped_dpm(benchmark, db):
    engine = QueryEngine(db)
    query = Query(metric="dpm")
    engine.execute(query)  # prime
    result = benchmark(lambda: engine.execute(query))
    assert result.cached


def test_full_scan_equivalent(benchmark, db):
    summaries = benchmark(lambda: manufacturer_dpm_summary(db))
    assert summaries


def test_index_build(benchmark, db):
    from repro.query.index import DatabaseIndex

    index = benchmark(lambda: DatabaseIndex.build(db))
    assert index.summary()["disengagements"] == len(db.disengagements)


def test_warm_speedup_budget(db):
    """The recorded ≥10× warm-cache budget, engine-level."""
    engine = QueryEngine(db)
    query = Query(metric="dpm")
    engine.execute(query)
    rounds = 50
    warm = _sample_ms(lambda: engine.execute(query), rounds)
    scan = _sample_ms(lambda: manufacturer_dpm_summary(db), rounds)
    speedup = _percentile(scan, 0.5) / max(_percentile(warm, 0.5),
                                           1e-6)
    assert speedup >= SPEEDUP_BUDGET, (
        f"warm-cache DPM speedup {speedup:.1f}x is under the "
        f"{SPEEDUP_BUDGET:.0f}x budget")


# ----------------------------------------------------------------------
# Self-contained report (what CI runs).
# ----------------------------------------------------------------------


def main() -> None:
    print(f"building seed-{DEFAULT_SEED} database...")
    db = _seed_database()
    print(f"  {len(db.disengagements):,} disengagements, "
          f"{len(db.accidents)} accidents, "
          f"{len(db.mileage):,} mileage cells")

    rounds = 30
    print(f"\nHTTP endpoint latency (ms, {rounds} rounds each):")
    print(f"  {'family':15s} {'cold p50':>9s} {'cold p99':>9s} "
          f"{'warm p50':>9s} {'warm p99':>9s}")
    warm_rows = {}
    for label, cache_size in (("cold", 0), ("warm", 256)):
        with QueryServer(db, port=0, cache_size=cache_size) as server:
            for family, path in ENDPOINT_FAMILIES.items():
                url = server.url + path
                _fetch(url)  # connection + (warm) cache priming
                samples = _sample_ms(lambda: _fetch(url), rounds)
                warm_rows.setdefault(family, {})[label] = (
                    _percentile(samples, 0.5),
                    _percentile(samples, 0.99))
    for family, row in warm_rows.items():
        cold_p50, cold_p99 = row["cold"]
        warm_p50, warm_p99 = row["warm"]
        print(f"  {family:15s} {cold_p50:9.3f} {cold_p99:9.3f} "
              f"{warm_p50:9.3f} {warm_p99:9.3f}")

    print("\nwarm-cache grouped DPM vs full-scan analysis:")
    engine = QueryEngine(db)
    query = Query(metric="dpm")
    engine.execute(query)
    rounds = 100
    warm = _sample_ms(lambda: engine.execute(query), rounds)
    scan = _sample_ms(lambda: manufacturer_dpm_summary(db), rounds)
    warm_p50 = _percentile(warm, 0.5)
    scan_p50 = _percentile(scan, 0.5)
    speedup = scan_p50 / max(warm_p50, 1e-6)
    print(f"  full scan  p50 {scan_p50:9.3f} ms   "
          f"p99 {_percentile(scan, 0.99):9.3f} ms")
    print(f"  warm cache p50 {warm_p50:9.3f} ms   "
          f"p99 {_percentile(warm, 0.99):9.3f} ms")
    print(f"  speedup    {speedup:8.1f}x  (budget: "
          f">={SPEEDUP_BUDGET:.0f}x)")
    assert speedup >= SPEEDUP_BUDGET, (
        f"warm-cache speedup {speedup:.1f}x violates the "
        f"{SPEEDUP_BUDGET:.0f}x budget")
    print("\nbudget met.")


if __name__ == "__main__":
    main()
