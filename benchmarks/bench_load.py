"""Closed-loop load benchmark for the serving layer.

Measures RPS and p50/p99/p999 latency per route for two server
variants over the same seed-2018 database:

1. **threaded baseline** — the single-process `QueryServer`
   (`ThreadingHTTPServer`, GIL-bound).
2. **pre-fork** — `PreforkServer` with N worker processes sharing
   one port (SO_REUSEPORT where available).

Clients are *separate processes* (not threads), so on a single-core
box the load generator competes fairly with both server variants
instead of sharing the threaded server's GIL.

Budget (tiered by core count; the report starts with the
``runinfo.run_header`` header every committed ``BENCH_*.json``
carries): the N-process server's total RPS must be at
least the threaded baseline's on one core, and >=1.5x it when two or
more cores are present.  The run also asserts that the pre-fork
``/metrics`` exposition aggregates every worker and that pre-fork
responses are byte-identical to the single-process server on every
benchmarked route.

Run as a script (``python benchmarks/bench_load.py``) for the
self-contained report + budget assertions — this is what CI runs.
``--out BENCH_serving.json`` also records the measurements (the
committed baseline).
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import tempfile
import time
import urllib.request
from pathlib import Path

from repro.obs.metrics import MetricsRegistry
from repro.pipeline.checkpoint import canonical_json
from repro.pipeline.config import PipelineConfig
from repro.pipeline.runner import process_corpus
from repro.query.server import QueryServer
from repro.serving.prefork import PreforkServer

from runinfo import run_header

SEED = 2018

#: Pre-fork total RPS vs the threaded baseline, by core count.  On
#: one core the expectation is parity (no parallelism to win, only
#: process overhead to lose), so the enforced floor sits a noise
#: margin below 1.0 — closed-loop runs on a contended single core
#: jitter by ~10% even with interleaved rounds.
RPS_BUDGET_MULTICORE = 1.5   # >=2 cores: real parallelism expected
RPS_BUDGET_1CORE = 0.85      # 1 core: parity within measurement noise

#: The benchmarked routes — one cached-query hot path, one grouped
#: query, one listing, one metric shortcut.
ROUTES = (
    "/v1/query?metric=dpm&group_by=manufacturer",
    "/v1/query?metric=count&group_by=month",
    "/v1/manufacturers",
    "/v1/metrics/dpm",
)

#: Response fields that legitimately differ between servers.
VOLATILE_FIELDS = ("elapsed_ms", "cached")


def _build_db():
    from repro.synth.dataset import generate_corpus

    config = PipelineConfig(seed=SEED, dictionary_mode="seed")
    corpus = generate_corpus(SEED)
    return process_corpus(corpus, config).database


# ----------------------------------------------------------------------
# The closed-loop client (runs in its own process).
# ----------------------------------------------------------------------

def _client(host: str, port: int, duration_s: float, start_event,
            out_queue) -> None:
    """Issue requests back-to-back over one keep-alive connection
    until the deadline, recording per-route latencies.  Routes are
    cycled so every route sees the same request mix from every
    client."""
    import http.client

    samples: dict[str, list[float]] = {route: [] for route in ROUTES}
    connection = http.client.HTTPConnection(host, port, timeout=10)
    start_event.wait()
    deadline = time.monotonic() + duration_s
    turn = 0
    while time.monotonic() < deadline:
        route = ROUTES[turn % len(ROUTES)]
        turn += 1
        begin = time.perf_counter()
        try:
            connection.request("GET", route)
            connection.getresponse().read()
        except Exception:
            # Reconnect; the gap shows up as missing RPS, not a
            # crash.
            connection.close()
            connection = http.client.HTTPConnection(host, port,
                                                    timeout=10)
            continue
        samples[route].append(time.perf_counter() - begin)
    connection.close()
    out_queue.put(samples)


def _percentile(latencies: list[float], q: float) -> float:
    ordered = sorted(latencies)
    return ordered[min(int(q * len(ordered)), len(ordered) - 1)]


def _measure(host: str, port: int, clients: int,
             duration_s: float) -> dict:
    """One closed-loop measurement: RPS + p50/p99/p999 per route."""
    context = multiprocessing.get_context("fork")
    start_event = context.Event()
    out_queue = context.Queue()
    processes = [context.Process(target=_client,
                                 args=(host, port, duration_s,
                                       start_event, out_queue))
                 for _ in range(clients)]
    for process in processes:
        process.start()
    start_event.set()
    merged: dict[str, list[float]] = {route: [] for route in ROUTES}
    for _ in processes:
        for route, latencies in out_queue.get().items():
            merged[route].extend(latencies)
    for process in processes:
        process.join()
    total = sum(len(latencies) for latencies in merged.values())
    per_route = {}
    for route, latencies in merged.items():
        if not latencies:
            per_route[route] = {"requests": 0}
            continue
        per_route[route] = {
            "requests": len(latencies),
            "rps": round(len(latencies) / duration_s, 1),
            "p50_ms": round(_percentile(latencies, 0.50) * 1e3, 3),
            "p99_ms": round(_percentile(latencies, 0.99) * 1e3, 3),
            "p999_ms": round(_percentile(latencies, 0.999) * 1e3, 3),
        }
    return {"total_requests": total,
            "total_rps": round(total / duration_s, 1),
            "routes": per_route}


def _warmup(url: str) -> None:
    """Prime caches (and every pre-fork worker) before timing."""
    for _ in range(4):
        for route in ROUTES:
            with urllib.request.urlopen(url + route,
                                        timeout=10) as res:
                res.read()


# ----------------------------------------------------------------------
# Parity + aggregation checks (the bench proves, not assumes).
# ----------------------------------------------------------------------

def _fetch(url: str, route: str) -> dict:
    with urllib.request.urlopen(url + route, timeout=10) as res:
        body = json.loads(res.read())
    for field in VOLATILE_FIELDS:
        body.pop(field, None)
    return body


def _assert_parity(single_url: str, prefork_url: str,
                   failures: list[str]) -> bool:
    for route in ROUTES:
        expected = canonical_json(_fetch(single_url, route))
        actual = canonical_json(_fetch(prefork_url, route))
        if actual != expected:
            failures.append(f"pre-fork response differs on {route}")
            return False
    return True


def _assert_metrics_aggregated(server: PreforkServer,
                               failures: list[str]) -> int:
    time.sleep(0.5)  # one worker flush interval
    text = server.scrape_metrics()
    seen = sum(
        1 for worker in range(server.processes)
        if f'repro_serving_worker_up{{worker="{worker}"}} 1' in text)
    if seen != server.processes:
        failures.append(
            f"/metrics aggregates {seen}/{server.processes} workers")
    return seen


# ----------------------------------------------------------------------
# Entry point.
# ----------------------------------------------------------------------

def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default=None,
                        help="also write the measurements as JSON")
    parser.add_argument("--processes", type=int, default=2,
                        help="pre-fork worker count "
                             "(default: %(default)s)")
    parser.add_argument("--clients", type=int, default=4,
                        help="closed-loop client processes "
                             "(default: %(default)s)")
    parser.add_argument("--duration", type=float, default=2.0,
                        help="seconds per measurement "
                             "(default: %(default)s)")
    parser.add_argument("--rounds", type=int, default=3,
                        help="interleaved measurement rounds per "
                             "variant (best-of; "
                             "default: %(default)s)")
    args = parser.parse_args(argv)

    report: dict = {
        "seed": SEED,
        **run_header(),
        "processes": args.processes,
        "clients": args.clients,
        "duration_s": args.duration,
    }
    cores = report["cpu_count"]
    budget = (RPS_BUDGET_MULTICORE if cores >= 2
              else RPS_BUDGET_1CORE)
    report["rps_budget"] = budget
    failures: list[str] = []

    print(f"building seed-{SEED} database ({cores} core(s))...")
    db = _build_db()
    with tempfile.TemporaryDirectory(prefix="repro-bench-") as tmp:
        db_path = Path(tmp) / "db.json"
        db.save(db_path)

        # Rounds are interleaved (baseline, pre-fork, baseline, ...)
        # so slow drift on a shared box hits both variants equally;
        # each variant keeps its best round.
        print(f"\ninterleaved rounds: threaded baseline vs pre-fork "
              f"x{args.processes}, {args.clients} "
              f"client processes, {args.duration:.1f}s "
              f"x{args.rounds} each:")
        baseline: dict | None = None
        prefork: dict | None = None
        with QueryServer(db, port=0,
                         registry=MetricsRegistry()) as single, \
                PreforkServer(db_path, port=0,
                              processes=args.processes) as server:
            if not server.wait_ready(60):
                print("FAIL: pre-fork server never became ready")
                return 1
            _assert_parity(single.url, server.url, failures)
            _warmup(single.url)
            _warmup(server.url)
            for round_no in range(args.rounds):
                run = _measure(single.host, single.port,
                               args.clients, args.duration)
                if (baseline is None
                        or run["total_rps"] > baseline["total_rps"]):
                    baseline = run
                counter = _measure(server.host, server.port,
                                   args.clients, args.duration)
                if (prefork is None
                        or counter["total_rps"]
                        > prefork["total_rps"]):
                    prefork = counter
                print(f"  round {round_no + 1}: baseline "
                      f"{run['total_rps']:8.1f} rps | pre-fork "
                      f"{counter['total_rps']:8.1f} rps")
            workers_seen = _assert_metrics_aggregated(server,
                                                      failures)
        report["threaded_baseline"] = baseline
        report["prefork"] = prefork
        report["metrics_aggregated_workers"] = workers_seen
        print(f"  best: baseline {baseline['total_rps']:8.1f} rps | "
              f"pre-fork {prefork['total_rps']:8.1f} rps "
              f"(/metrics aggregated {workers_seen} workers)")

    ratio = (prefork["total_rps"] / baseline["total_rps"]
             if baseline["total_rps"] else 0.0)
    report["rps_ratio"] = round(ratio, 3)
    print(f"\npre-fork vs baseline: {ratio:.2f}x "
          f"(budget >={budget:.2f}x on {cores} core(s))")
    for variant in ("threaded_baseline", "prefork"):
        print(f"  {variant}:")
        for route, stats in report[variant]["routes"].items():
            if stats.get("requests"):
                print(f"    {route:45s} {stats['rps']:8.1f} rps  "
                      f"p50 {stats['p50_ms']:7.3f}ms  "
                      f"p99 {stats['p99_ms']:7.3f}ms  "
                      f"p999 {stats['p999_ms']:7.3f}ms")
    if ratio < budget:
        failures.append(
            f"pre-fork RPS {prefork['total_rps']:.1f} is "
            f"{ratio:.2f}x the baseline "
            f"{baseline['total_rps']:.1f}, under the "
            f"{budget:.2f}x budget on {cores} core(s)")

    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=2) + "\n")
        print(f"\nreport written to {args.out}")
    if failures:
        for failure in failures:
            print(f"FAIL: {failure}")
        return 1
    print("OK: serving load budgets met "
          "(RPS ratio, parity, metrics aggregation)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
