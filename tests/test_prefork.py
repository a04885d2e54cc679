"""Tests for the pre-fork multi-process front end.

Covers the generation-file swap channel, worker metrics aggregation,
and the :class:`~repro.serving.prefork.PreforkServer` acceptance contracts:
byte-identical responses to the single-process server,
swap-under-load with every response from exactly one generation,
``/metrics`` aggregating all workers, crash-respawn, and graceful
shutdown.
"""

from __future__ import annotations

import json
import os
import signal
import socket
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.api import load_database
from repro.cli import main
from repro.obs.metrics import SERVING_WORKER_UP, MetricsRegistry
from repro.pipeline.checkpoint import canonical_json
from repro.query.engine import Query, QueryEngine
from repro.query.server import QueryServer
from repro.serving import worker
from repro.serving.generation import GenerationFile, GenerationWatcher
from repro.serving.prefork import PreforkServer
from repro.serving.worker import aggregate_metrics, flush_metrics

PROCESSES = 2
FAST = dict(drain_timeout_s=3.0)


@pytest.fixture(scope="module", autouse=True)
def fast_workers():
    """Workers poll the generation file and flush their metrics often,
    so swaps and scrapes converge quickly.  The ``fork`` start method
    carries the patched globals into every worker and every respawn."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(worker, "POLL_INTERVAL_S", 0.05)
        patch.setattr(worker, "FLUSH_INTERVAL_S", 0.1)
        yield


@pytest.fixture(scope="module")
def db_file(small_db, tmp_path_factory):
    path = tmp_path_factory.mktemp("serving") / "db.json"
    small_db.save(path)
    return path


@pytest.fixture(scope="module")
def other_db_file(db, tmp_path_factory):
    path = tmp_path_factory.mktemp("serving") / "other.json"
    db.save(path)
    return path


@pytest.fixture(scope="module")
def prefork(db_file):
    with PreforkServer(db_file, port=0, processes=PROCESSES,
                       **FAST) as server:
        assert server.wait_ready(60)
        yield server


def _worker_pids(server):
    """Live worker pids by slot (``None`` = currently down)."""
    return [proc.pid if proc is not None and proc.is_alive() else None
            for proc in server._workers]


def _get(url, path):
    with urllib.request.urlopen(url + path, timeout=10) as res:
        return res.status, json.loads(res.read())


class TestGenerationFile:
    def test_publish_and_read(self, tmp_path):
        file = GenerationFile(tmp_path / "generation.json")
        assert file.read() is None
        first = file.publish("/data/db-1.json")
        assert first.generation == 1
        second = file.publish("/data/db-2.json")
        assert second.generation == 2
        current = file.read()
        assert current.generation == 2
        assert current.path == "/data/db-2.json"

    def test_malformed_reads_none(self, tmp_path):
        target = tmp_path / "generation.json"
        target.write_text("{torn", encoding="utf-8")
        assert GenerationFile(target).read() is None

    def test_watcher_fires_once_per_generation(self, tmp_path):
        file = GenerationFile(tmp_path / "generation.json")
        file.publish("/data/db-1.json")
        seen = []
        watcher = GenerationWatcher(file, seen.append,
                                    start_generation=1)
        assert watcher.poll_once() is False  # already at gen 1
        file.publish("/data/db-2.json")
        assert watcher.poll_once() is True
        assert watcher.poll_once() is False  # no re-fire
        assert [g.generation for g in seen] == [2]

    def test_watcher_survives_callback_errors(self, tmp_path):
        file = GenerationFile(tmp_path / "generation.json")
        file.publish("/data/db-1.json")

        def explode(generation):
            raise RuntimeError("swap failed")

        watcher = GenerationWatcher(file, explode)
        assert watcher.poll_once() is True
        assert "swap failed" in watcher.last_error
        file.publish("/data/db-2.json")
        assert watcher.poll_once() is True  # still alive


class TestMetricsAggregation:
    def test_sibling_dumps_merge_additively(self, tmp_path):
        for worker_id, count in ((0, 3), (1, 4)):
            registry = MetricsRegistry()
            counter = registry.counter("repro_test_hits_total",
                                       "test", ("route",))
            counter.labels("/v1/query").inc(count)
            registry.gauge(SERVING_WORKER_UP, "up", ("worker",)
                           ).labels(str(worker_id)).set(1)
            flush_metrics(registry, tmp_path, worker_id)
        live = MetricsRegistry()
        live.counter("repro_test_hits_total", "test",
                     ("route",)).labels("/v1/query").inc(5)
        live.gauge(SERVING_WORKER_UP, "up", ("worker",)
                   ).labels("2").set(1)
        text = aggregate_metrics(live, tmp_path, own_worker_id=2)
        assert 'repro_test_hits_total{route="/v1/query"} 12' in text
        for worker in ("0", "1", "2"):
            assert (f'repro_serving_worker_up{{worker="{worker}"}} 1'
                    in text)

    def test_own_stale_dump_not_double_counted(self, tmp_path):
        registry = MetricsRegistry()
        registry.counter("repro_test_hits_total", "t").inc(7)
        flush_metrics(registry, tmp_path, 0)  # stale self dump
        registry.get("repro_test_hits_total").inc(1)  # now 8 live
        text = aggregate_metrics(registry, tmp_path, own_worker_id=0)
        assert "repro_test_hits_total 8" in text

    def test_torn_dump_skipped(self, tmp_path):
        (tmp_path / "worker-9.pkl").write_bytes(b"\x80garbage")
        live = MetricsRegistry()
        live.counter("repro_test_hits_total", "t").inc(2)
        text = aggregate_metrics(live, tmp_path, own_worker_id=0)
        assert "repro_test_hits_total 2" in text


class TestPreforkServing:
    def test_all_workers_up_and_ready(self, prefork):
        pids = _worker_pids(prefork)
        assert len(pids) == PROCESSES
        assert all(pid is not None for pid in pids)
        status, body = _get(prefork.url, "/v1/healthz")
        assert status == 200 and body["status"] == "ok"

    def test_byte_identical_to_single_process(self, prefork,
                                              small_db):
        """Acceptance: pre-fork responses byte-identical to the
        single-process server for every route."""
        routes = [
            "/v1/healthz",
            "/v1/manufacturers",
            "/v1/manufacturers?limit=2",
            "/v1/query?metric=dpm&group_by=manufacturer",
            "/v1/query?metric=count&group_by=month",
            "/v1/query?metric=miles",
            "/v1/metrics/dpm",
            "/v1/metrics/apm",
            "/v1/metrics/dpa",
        ]
        with QueryServer(small_db, port=0,
                         registry=MetricsRegistry()) as single:
            for path in routes:
                _, expected = _get(single.url, path)
                for _ in range(PROCESSES + 1):  # hit every worker
                    _, actual = _get(prefork.url, path)
                    for volatile in ("elapsed_ms", "cached"):
                        expected.pop(volatile, None)
                        actual.pop(volatile, None)
                    assert (canonical_json(actual)
                            == canonical_json(expected)), path

    def test_metrics_aggregates_all_workers(self, prefork):
        # Spread some traffic, then give flushers one interval.
        for _ in range(20):
            _get(prefork.url, "/v1/query?metric=count")
        time.sleep(0.4)
        text = prefork.scrape_metrics()
        for worker in range(PROCESSES):
            assert (f'repro_serving_worker_up{{worker="{worker}"}} 1'
                    in text), text[:500]
        assert "repro_http_requests_total" in text

    def test_error_envelope_through_prefork(self, prefork):
        try:
            _get(prefork.url, "/v1/query?metric=frobnicate")
            raise AssertionError("unexpectedly succeeded")
        except urllib.error.HTTPError as exc:
            body = json.loads(exc.read())
            assert exc.code == 400
            assert body["error"]["code"] == "invalid_query"


class TestSwapUnderLoad:
    """Acceptance: hot swap across the worker fleet while clients
    hammer it — every response from exactly one known generation."""

    QUERIES = [
        Query(metric="dpm"),
        Query(metric="count", group_by="manufacturer"),
        Query(metric="miles", group_by="month"),
    ]

    def test_multiprocess_swap_under_load(self, small_db, db,
                                          db_file, other_db_file):
        expected = {}
        for database in (small_db, db):
            serial = QueryEngine(database)
            expected[database.fingerprint()] = {
                q.canonical(): canonical_json(serial.execute(q).value)
                for q in self.QUERIES}
        failures: list[str] = []
        stop = threading.Event()

        with PreforkServer(db_file, port=0, processes=PROCESSES,
                           **FAST) as server:
            assert server.wait_ready(60)

            def client(offset: int) -> None:
                rounds = 0
                while not stop.is_set() and rounds < 150:
                    rounds += 1
                    query = self.QUERIES[(offset + rounds)
                                         % len(self.QUERIES)]
                    request = urllib.request.Request(
                        server.url + "/v1/query",
                        data=json.dumps(
                            query.to_dict()).encode("utf-8"),
                        headers={"Content-Type":
                                 "application/json"},
                        method="POST")
                    try:
                        with urllib.request.urlopen(
                                request, timeout=10) as res:
                            body = json.loads(res.read())
                    except Exception as exc:
                        failures.append(f"client {offset}: {exc!r}")
                        continue
                    known = expected.get(body["fingerprint"])
                    if known is None:
                        failures.append("unknown fingerprint")
                    elif (canonical_json(body["result"])
                          != known[query.canonical()]):
                        failures.append(
                            f"{query.metric}: blended generations")

            threads = [threading.Thread(target=client, args=(n,))
                       for n in range(4)]
            for thread in threads:
                thread.start()
            for flip in range(6):
                server.publish(other_db_file if flip % 2 == 0
                               else db_file)
                time.sleep(0.15)
            stop.set()
            for thread in threads:
                thread.join()
        assert not failures, failures[:5]

    def test_workers_converge_after_swap(self, prefork, db,
                                         other_db_file, db_file):
        generation = prefork.publish(other_db_file)
        assert generation >= 2
        target = db.fingerprint()
        deadline = time.monotonic() + 15.0
        converged = False
        while time.monotonic() < deadline and not converged:
            fingerprints = {
                _get(prefork.url,
                     "/v1/query?metric=count")[1]["fingerprint"]
                for _ in range(PROCESSES * 3)}
            converged = fingerprints == {target}
            time.sleep(0.05)
        assert converged
        # Swap back so sibling tests see the original database.
        prefork.publish(db_file)
        deadline = time.monotonic() + 15.0
        while time.monotonic() < deadline:
            fingerprints = {
                _get(prefork.url,
                     "/v1/query?metric=count")[1]["fingerprint"]
                for _ in range(PROCESSES * 3)}
            if fingerprints != {target}:
                break
            time.sleep(0.05)


class TestSupervision:
    def test_crash_respawn(self, db_file):
        with PreforkServer(db_file, port=0, processes=PROCESSES,
                           **FAST) as server:
            assert server.wait_ready(60)
            victim = _worker_pids(server)[0]
            os.kill(victim, signal.SIGKILL)
            deadline = time.monotonic() + 20.0
            respawned = False
            while time.monotonic() < deadline and not respawned:
                pids = _worker_pids(server)
                respawned = (all(pid is not None for pid in pids)
                             and pids[0] != victim)
                time.sleep(0.05)
            assert respawned
            assert server.wait_ready(20)
            status, _ = _get(server.url, "/v1/query?metric=count")
            assert status == 200

    def test_graceful_shutdown_leaves_no_workers(self, db_file):
        server = PreforkServer(db_file, port=0, processes=PROCESSES,
                               **FAST)
        server.start()
        assert server.wait_ready(60)
        pids = [pid for pid in _worker_pids(server)
                if pid is not None]
        server.shutdown()
        for pid in pids:
            with pytest.raises(ProcessLookupError):
                os.kill(pid, 0)
        # The port is free again: a fresh server can claim it.
        with QueryServer(load_database(db_file), host=server.host,
                         port=server.port) as reclaimed:
            assert _get(reclaimed.url, "/v1/healthz")[0] == 200


class TestPortRequirements:
    def test_missing_so_reuseport_refused_before_fork(
            self, db_file, tmp_path, monkeypatch):
        monkeypatch.delattr(socket, "SO_REUSEPORT")
        server = PreforkServer(db_file, port=0, processes=PROCESSES,
                               run_dir=tmp_path / "run", **FAST)
        try:
            with pytest.raises(ValueError, match="SO_REUSEPORT"):
                server.start()
            assert _worker_pids(server) == [None] * PROCESSES
            assert not (tmp_path / "run").exists()
        finally:
            server.shutdown()  # reaps workers a regression would fork

    def test_cli_exits_2_without_so_reuseport(self, db_file,
                                              monkeypatch, capsys):
        monkeypatch.delattr(socket, "SO_REUSEPORT")

        def serving(signum, frame):
            raise TimeoutError("serve started instead of exiting")

        # A server that does start would serve until signalled; the
        # alarm bounds the wait and its shutdown reaps the workers.
        previous = signal.signal(signal.SIGALRM, serving)
        signal.alarm(30)
        try:
            code = main(["serve", "--db", str(db_file), "--processes",
                         "2", "--port", "0", "--quiet"])
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
        assert code == 2
        assert "SO_REUSEPORT" in capsys.readouterr().err
