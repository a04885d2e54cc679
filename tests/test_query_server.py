"""Tests for the embedded HTTP API, including the concurrency
contract: ≥8 threads hammering the engine and the server must get
results identical to the serial path, with the cache staying
consistent throughout.
"""

from __future__ import annotations

import json
import socket
import threading
import urllib.error
import urllib.request

import pytest

from repro import __version__
from repro.pipeline.checkpoint import canonical_json
from repro.query import Query, QueryEngine, QueryServer

THREADS = 8
ROUNDS = 5


@pytest.fixture(scope="module")
def engine(small_db):
    return QueryEngine(small_db)


@pytest.fixture(scope="module")
def server(engine):
    with QueryServer(engine, port=0) as running:
        yield running


def _get(server, path):
    with urllib.request.urlopen(server.url + path, timeout=10) as res:
        return res.status, json.loads(res.read())


def _post(server, path, payload):
    request = urllib.request.Request(
        server.url + path, data=json.dumps(payload).encode("utf-8"),
        headers={"Content-Type": "application/json"}, method="POST")
    with urllib.request.urlopen(request, timeout=10) as res:
        return res.status, json.loads(res.read())


def _error(server, path, method="GET", payload=None):
    try:
        if method == "POST":
            _post(server, path, payload)
        else:
            _get(server, path)
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read())
    raise AssertionError(f"{path} unexpectedly succeeded")


class TestEndpoints:
    def test_healthz(self, server, engine):
        status, body = _get(server, "/v1/healthz")
        assert status == 200
        assert body == {"status": "ok", "version": __version__,
                        "fingerprint": engine.fingerprint}

    def test_stats(self, server, engine):
        status, body = _get(server, "/v1/stats")
        assert status == 200
        assert body["fingerprint"] == engine.fingerprint
        assert {"hits", "misses", "evictions"} <= set(body["cache"])
        assert body["index"]["disengagements"] == len(
            engine.db.disengagements)

    def test_manufacturers(self, server, small_db):
        status, body = _get(server, "/v1/manufacturers")
        assert status == 200
        assert body["manufacturers"] == small_db.manufacturers()

    def test_query_get_matches_engine(self, server, engine):
        status, body = _get(server, "/v1/query?metric=dpm")
        assert status == 200
        direct = engine.execute(Query(metric="dpm"))
        assert canonical_json(body["result"]) == canonical_json(
            direct.value)
        assert body["fingerprint"] == engine.fingerprint

    def test_query_get_with_filters(self, server, engine, small_db):
        name = small_db.manufacturers()[0]
        status, body = _get(
            server,
            f"/v1/query?metric=count&group_by=tag&manufacturer={name}")
        assert status == 200
        direct = engine.execute(Query(
            metric="count", group_by="tag", manufacturers=(name,)))
        assert body["result"] == direct.value

    def test_query_post(self, server, engine):
        payload = {"metric": "tags"}
        status, body = _post(server, "/v1/query", payload)
        assert status == 200
        assert canonical_json(body["result"]) == canonical_json(
            engine.execute(Query(metric="tags")).value)

    def test_metric_shortcuts(self, server, engine):
        for name in ("dpm", "apm"):
            status, body = _get(server, f"/v1/metrics/{name}")
            assert status == 200
            assert canonical_json(body["result"]) == canonical_json(
                engine.execute(Query(metric=name)).value)
        status, body = _get(server, "/v1/metrics/dpa")
        assert status == 200
        assert body["result"] == engine.execute(
            Query(metric="dpa")).value

    def test_cached_flag_over_http(self, server):
        _get(server, "/v1/query?metric=modalities")
        _, body = _get(server, "/v1/query?metric=modalities")
        assert body["cached"] is True


class TestBind:
    """The server binds without a reverse-DNS lookup of its address."""

    @pytest.fixture(autouse=True)
    def no_reverse_dns(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("socket.getfqdn called")

        monkeypatch.setattr(socket, "getfqdn", refuse)

    def test_starts_and_answers_healthz(self, small_db):
        with QueryServer(small_db, port=0) as running:
            status, body = _get(running, "/v1/healthz")
            assert status == 200
            assert body["fingerprint"] == small_db.fingerprint()
            assert running._httpd.server_port == running.port

    @pytest.mark.skipif(not hasattr(socket, "SO_REUSEPORT"),
                        reason="platform has no SO_REUSEPORT")
    def test_reuse_port_still_set(self, small_db):
        with QueryServer(small_db, port=0, reuse_port=True) as running:
            assert running._httpd.socket.getsockopt(
                socket.SOL_SOCKET, socket.SO_REUSEPORT) == 1
            assert _get(running, "/v1/healthz")[0] == 200


class TestErrors:
    def test_unknown_path_404(self, server):
        code, body = _error(server, "/nope")
        assert code == 404
        assert body["error"]["code"] == "not_found"
        assert "unknown path" in body["error"]["message"]

    def test_unknown_metric_endpoint_404(self, server):
        code, body = _error(server, "/v1/metrics/frobnicate")
        assert code == 404
        assert body["error"]["code"] == "not_found"
        assert "unknown metric" in body["error"]["message"]

    def test_bad_query_400(self, server):
        code, body = _error(server, "/v1/query?metric=frobnicate")
        assert code == 400
        assert body["error"]["code"] == "invalid_query"
        assert "unknown metric" in body["error"]["message"]

    def test_unknown_parameter_400(self, server):
        code, body = _error(server, "/v1/query?metric=dpm&frob=1")
        assert code == 400
        assert "unknown query parameter" in body["error"]["message"]

    def test_metric_shortcut_rejects_metric_param(self, server):
        code, body = _error(server, "/v1/metrics/dpm?metric=apm")
        assert code == 400
        assert "fixes the metric" in body["error"]["message"]

    def test_post_bad_json_400(self, server):
        request = urllib.request.Request(
            server.url + "/v1/query", data=b"{not json",
            headers={"Content-Type": "application/json"},
            method="POST")
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request, timeout=10)
        assert excinfo.value.code == 400

    def test_post_wrong_path_404(self, server):
        code, body = _error(server, "/v1/healthz", method="POST",
                            payload={})
        assert code == 404

    def test_insufficient_data_422(self, small_db):
        from repro.pipeline.store import FailureDatabase

        empty_accidents = FailureDatabase(
            disengagements=list(small_db.disengagements),
            mileage=list(small_db.mileage))
        with QueryServer(empty_accidents, port=0) as server:
            code, body = _error(server, "/v1/metrics/apm")
            assert code == 422
            assert body["error"]["code"] == "insufficient_data"
            assert "no accidents" in body["error"]["message"]


class TestConcurrency:
    """≥8 threads, identical-to-serial results, consistent cache."""

    QUERIES = [
        Query(metric="dpm"),
        Query(metric="apm"),
        Query(metric="tags"),
        Query(metric="categories"),
        Query(metric="count", group_by="tag"),
        Query(metric="miles", group_by="month"),
        Query(metric="trend"),
        Query(metric="modalities"),
    ]

    def test_engine_hammer_matches_serial(self, small_db):
        # A fresh engine per test: the serial pass runs on a second
        # fresh engine so caching cannot mask a miscomputation.
        engine = QueryEngine(small_db)
        serial = {q.canonical():
                  canonical_json(QueryEngine(small_db).execute(q).value)
                  for q in self.QUERIES}
        failures: list[str] = []
        barrier = threading.Barrier(THREADS)

        def worker(offset: int) -> None:
            barrier.wait()
            for round_number in range(ROUNDS):
                for i, query in enumerate(self.QUERIES):
                    q = self.QUERIES[(offset + i) % len(self.QUERIES)]
                    got = canonical_json(engine.execute(q).value)
                    if got != serial[q.canonical()]:
                        failures.append(
                            f"{q.metric}: thread {offset} round "
                            f"{round_number} diverged")

        threads = [threading.Thread(target=worker, args=(n,))
                   for n in range(THREADS)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not failures
        stats = engine.stats()["cache"]
        # First-round races may recompute a fresh key concurrently
        # (benign: identical value, last write wins), so misses are
        # bounded by threads × distinct queries, not by distinct
        # queries alone — and after the first round everything hits.
        assert stats["misses"] <= THREADS * len(self.QUERIES)
        assert stats["hits"] >= (ROUNDS - 1) * THREADS * len(
            self.QUERIES)
        assert (stats["hits"] + stats["misses"]
                == THREADS * ROUNDS * len(self.QUERIES))

    def test_http_hammer_matches_serial(self, server, small_db):
        serial = {
            q.canonical():
            canonical_json(QueryEngine(small_db).execute(q).value)
            for q in self.QUERIES}
        failures: list[str] = []
        barrier = threading.Barrier(THREADS)

        def worker(offset: int) -> None:
            barrier.wait()
            try:
                for i in range(ROUNDS * len(self.QUERIES)):
                    q = self.QUERIES[(offset + i) % len(self.QUERIES)]
                    status, body = _post(server, "/v1/query", q.to_dict())
                    if status != 200:
                        failures.append(f"status {status}")
                    elif (canonical_json(body["result"])
                          != serial[q.canonical()]):
                        failures.append(f"{q.metric} diverged")
            except Exception as exc:  # pragma: no cover
                failures.append(f"thread {offset}: {exc!r}")

        threads = [threading.Thread(target=worker, args=(n,))
                   for n in range(THREADS)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not failures

    def test_index_not_torn_under_reads(self, small_db):
        # Readers racing on a shared engine see one immutable index:
        # the identity of the index object never changes mid-read.
        engine = QueryEngine(small_db)
        index_ids = set()
        barrier = threading.Barrier(THREADS)

        def worker() -> None:
            barrier.wait()
            for _ in range(50):
                index_ids.add(id(engine.index))
                engine.execute(Query(metric="count"))

        threads = [threading.Thread(target=worker)
                   for _ in range(THREADS)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert len(index_ids) == 1
