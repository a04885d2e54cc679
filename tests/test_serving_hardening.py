"""Tests for always-on serving hardening.

Covers the request-path contracts: readiness distinct from liveness,
admission-control shedding with structured ``503 + Retry-After``,
per-request deadlines, sanitized 500s, graceful drain, watch-mode
hot-swaps (including corrupt drops), and the headline acceptance
check — under corrupt-candidate injection the server never returns a
500 or a mixed-generation result.
"""

from __future__ import annotations

import http.client
import json
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro import __version__
from repro.obs.metrics import MetricsRegistry
from repro.pipeline.chaos import ServingChaos
from repro.pipeline.checkpoint import canonical_json
from repro.pipeline.config import PipelineConfig
from repro.pipeline.runner import process_corpus
from repro.query.engine import Query, QueryEngine
from repro.query.server import MAX_BODY_BYTES, QueryServer
from repro.query.snapshot import SnapshotManager
from repro.synth.dataset import SyntheticCorpus

THREADS = 8


@pytest.fixture(scope="module")
def other_db(small_corpus):
    subset = SyntheticCorpus(seed=small_corpus.seed,
                             documents=small_corpus.documents[:2])
    config = PipelineConfig(seed=small_corpus.seed, ocr_enabled=False,
                            dictionary_mode="seed")
    return process_corpus(subset, config).database


def _get(server, path):
    with urllib.request.urlopen(server.url + path, timeout=10) as res:
        return res.status, dict(res.headers), json.loads(res.read())


def _get_error(server, path):
    try:
        _get(server, path)
    except urllib.error.HTTPError as exc:
        return exc.code, dict(exc.headers), json.loads(exc.read())
    raise AssertionError(f"{path} unexpectedly succeeded")


class TestReadiness:
    def test_ready_ok(self, small_db):
        with QueryServer(small_db, port=0) as server:
            status, _, body = _get(server, "/v1/readyz")
            assert status == 200
            assert body["status"] == "ok"
            assert body["generation"] == 1
            assert body["fingerprint"] == small_db.fingerprint()
            assert body["quarantined"] == 0
            assert body["last_error"] is None

    def test_degraded_after_quarantine_but_healthz_ok(
            self, small_db, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{torn", encoding="utf-8")
        with QueryServer(small_db, port=0,
                         registry=MetricsRegistry()) as server:
            assert server.snapshots.load(bad) is False
            status, _, body = _get(server, "/v1/readyz")
            assert status == 200  # still serving: traffic is fine
            assert body["status"] == "degraded"
            assert body["quarantined"] == 1
            assert body["last_error"]
            # Liveness is a different question, and its body is the
            # stable contract clients already depend on.
            status, _, health = _get(server, "/v1/healthz")
            assert status == 200
            assert health == {
                "status": "ok", "version": __version__,
                "fingerprint": small_db.fingerprint()}
            # Queries keep answering from the last-good generation.
            status, _, result = _get(server, "/v1/query?metric=count")
            assert status == 200
            assert result["fingerprint"] == small_db.fingerprint()

    def test_draining_readyz_503(self, small_db):
        server = QueryServer(small_db, port=0)
        server.start()
        try:
            server._httpd.begin_drain()
            code, _, body = _get_error(server, "/v1/readyz")
            assert code == 503
            assert body["status"] == "draining"
            # Liveness stays 200 right through the drain.
            status, _, _body = _get(server, "/v1/healthz")
            assert status == 200
        finally:
            server.shutdown()


class TestAdmissionControl:
    def test_sheds_with_structured_503(self, small_db):
        registry = MetricsRegistry()
        with QueryServer(small_db, port=0, max_inflight=1,
                         registry=registry) as server:
            # Deterministically saturate the one slot.
            assert server._httpd.try_admit() is None
            try:
                code, headers, body = _get_error(
                    server, "/v1/query?metric=dpm")
                assert code == 503
                assert body["error"]["code"] == "overloaded"
                assert body["error"]["detail"]["retry_after_s"] == 1
                assert headers["Retry-After"] == "1"
                # Probes and scrapes are exempt from admission.
                assert _get(server, "/v1/healthz")[0] == 200
                assert _get(server, "/v1/readyz")[0] == 200
                with urllib.request.urlopen(
                        server.url + "/metrics", timeout=10) as res:
                    assert res.status == 200
                    text = res.read().decode("utf-8")
                assert "repro_requests_shed_total 1" in text
            finally:
                server._httpd.release()
            # Capacity back: admitted again.
            status, _, _body = _get(server, "/v1/query?metric=dpm")
            assert status == 200

    def test_draining_refuses_new_queries(self, small_db):
        server = QueryServer(small_db, port=0)
        server.start()
        try:
            server._httpd.begin_drain()
            code, headers, body = _get_error(
                server, "/v1/query?metric=dpm")
            assert code == 503
            assert body["error"]["code"] == "draining"
            assert headers["Retry-After"] == "1"
        finally:
            server.shutdown()

    def test_wait_drained(self, small_db):
        server = QueryServer(small_db, port=0)
        httpd = server._httpd
        assert httpd.try_admit() is None
        assert httpd.wait_drained(timeout=0.05) is False
        releaser = threading.Timer(0.1, httpd.release)
        releaser.start()
        assert httpd.wait_drained(timeout=5.0) is True
        releaser.join()
        server._httpd.server_close()

    def test_slow_request_finishes_during_drain(self, small_db):
        chaos = ServingChaos(slow_query_s=0.3, slow_query_rate=1.0)
        server = QueryServer(small_db, port=0, chaos=chaos,
                             deadline_s=10.0, drain_timeout_s=5.0)
        server.start()
        outcome = {}

        def slow_client() -> None:
            try:
                outcome["status"] = _get(
                    server, "/v1/query?metric=dpm")[0]
            except Exception as exc:  # pragma: no cover
                outcome["error"] = repr(exc)

        thread = threading.Thread(target=slow_client)
        thread.start()
        # Let the request get admitted before the drain begins.
        deadline = time.monotonic() + 2.0
        while (server._httpd.inflight == 0
               and time.monotonic() < deadline):
            time.sleep(0.01)
        server.shutdown()
        thread.join(timeout=5.0)
        assert outcome.get("status") == 200


class TestDeadlines:
    def test_blown_deadline_is_structured_503(self, small_db):
        chaos = ServingChaos(slow_query_s=0.2, slow_query_rate=1.0)
        registry = MetricsRegistry()
        with QueryServer(small_db, port=0, deadline_s=0.05,
                         chaos=chaos, registry=registry) as server:
            code, headers, body = _get_error(
                server, "/v1/query?metric=dpm")
            assert code == 503
            assert body["error"]["code"] == "deadline_exceeded"
            assert "deadline exceeded" in body["error"]["message"]
            assert headers["Retry-After"] == "1"
            assert chaos.injected_delays == 1
            # Exempt probes never run the chaos delay or the budget.
            started = time.perf_counter()
            assert _get(server, "/v1/healthz")[0] == 200
            assert time.perf_counter() - started < 0.2
            with urllib.request.urlopen(
                    server.url + "/metrics", timeout=10) as res:
                text = res.read().decode("utf-8")
            assert "repro_request_timeouts_total 1" in text


class TestSanitized500:
    def test_unexpected_error_leaks_nothing(self, small_db):
        with QueryServer(small_db, port=0) as server:
            def boom(query):
                raise RuntimeError("secret internal detail")

            engine = server.snapshots.engine
            original = engine.execute
            engine.execute = boom
            try:
                code, _, body = _get_error(server, "/v1/query?metric=dpm")
            finally:
                engine.execute = original
            assert code == 500
            assert body == {"error": {
                "code": "internal",
                "message": "internal server error",
                "detail": None}}


class TestRequestBodyLimits:
    """A bad ``Content-Length`` is answered before any body is read,
    so it can neither block a handler nor hold an admission slot."""

    def _post(self, server, length: str) -> tuple[int, dict, dict]:
        conn = http.client.HTTPConnection(server.host, server.port,
                                          timeout=5)
        try:
            conn.putrequest("POST", "/v1/query")
            conn.putheader("Content-Length", length)
            conn.endheaders()
            response = conn.getresponse()
            return (response.status, dict(response.headers),
                    json.loads(response.read()))
        finally:
            conn.close()

    @pytest.mark.parametrize("length", ["-1", "12abc"])
    def test_bad_length_is_400(self, small_db, length):
        with QueryServer(small_db, port=0, max_inflight=1) as server:
            code, headers, body = self._post(server, length)
            assert code == 400
            assert body["error"]["code"] == "invalid_content_length"
            assert headers["Connection"] == "close"
            assert _get(server, "/v1/healthz")[0] == 200
            # The one admission slot was never taken.
            assert _get(server, "/v1/query?metric=count")[0] == 200

    def test_oversized_body_is_413(self, small_db):
        with QueryServer(small_db, port=0, max_inflight=1) as server:
            code, headers, body = self._post(
                server, str(MAX_BODY_BYTES + 1))
            assert code == 413
            assert body["error"]["code"] == "payload_too_large"
            assert body["error"]["detail"] == {
                "max_bytes": MAX_BODY_BYTES}
            assert headers["Connection"] == "close"
            assert _get(server, "/v1/healthz")[0] == 200
            assert _get(server, "/v1/query?metric=count")[0] == 200


class TestWatchMode:
    def test_hot_swap_and_corrupt_drop(self, small_db, other_db,
                                       tmp_path):
        drops = tmp_path / "drops"
        drops.mkdir()
        with QueryServer(small_db, port=0,
                         registry=MetricsRegistry()) as server:
            server.watch(drops, interval_s=0.05)
            other_db.save(drops / "a-next.json")
            deadline = time.monotonic() + 5.0
            while (server.snapshots.generation < 2
                   and time.monotonic() < deadline):
                time.sleep(0.02)
            assert server.snapshots.generation == 2
            status, _, body = _get(server, "/v1/query?metric=count")
            assert status == 200
            assert body["fingerprint"] == other_db.fingerprint()

            # A corrupt drop degrades readiness but keeps serving.
            (drops / "b-bad.json").write_text("{torn",
                                              encoding="utf-8")
            deadline = time.monotonic() + 5.0
            while (not server.snapshots.degraded
                   and time.monotonic() < deadline):
                time.sleep(0.02)
            status, _, ready = _get(server, "/v1/readyz")
            assert ready["status"] == "degraded"
            assert server.snapshots.generation == 2
            status, _, body = _get(server, "/v1/query?metric=count")
            assert status == 200
            assert body["fingerprint"] == other_db.fingerprint()

    def test_non_utf8_drop_quarantined_and_watch_survives(
            self, small_db, other_db, tmp_path):
        drops = tmp_path / "drops"
        drops.mkdir()
        with QueryServer(small_db, port=0,
                         registry=MetricsRegistry()) as server:
            server.watch(drops, interval_s=0.05)
            (drops / "a-binary.json").write_bytes(
                b"\xff\xfe" + "{}".encode("utf-16-le"))
            deadline = time.monotonic() + 5.0
            while (not server.snapshots.degraded
                   and time.monotonic() < deadline):
                time.sleep(0.02)
            _, _, ready = _get(server, "/v1/readyz")
            assert ready["status"] == "degraded"
            assert ready["quarantined"] >= 1

            # The watch loop is still alive: a later good drop goes live.
            other_db.save(drops / "b-next.json")
            deadline = time.monotonic() + 5.0
            while (server.snapshots.generation < 2
                   and time.monotonic() < deadline):
                time.sleep(0.02)
            assert server.snapshots.generation == 2
            _, _, body = _get(server, "/v1/query?metric=count")
            assert body["fingerprint"] == other_db.fingerprint()


class TestNever500UnderChaos:
    """Acceptance: with corrupt-candidate injection the server never
    returns a 500 or a mixed-generation result — it serves the
    last-good snapshot and reports through /readyz and /metrics."""

    def test_corrupt_injection_never_breaks_serving(
            self, small_db, other_db, tmp_path):
        chaos = ServingChaos(corrupt_candidate=True)
        registry = MetricsRegistry()
        manager = SnapshotManager(small_db, registry=registry,
                                  chaos=chaos)
        candidate = tmp_path / "next.json"
        other_db.save(candidate)
        expected = canonical_json(
            QueryEngine(small_db).execute(Query(metric="dpm")).value)
        with QueryServer(manager, port=0,
                         registry=registry) as server:
            for _ in range(3):
                assert server.snapshots.load(candidate) is False
                status, _, body = _get(server, "/v1/query?metric=dpm")
                assert status == 200
                assert body["fingerprint"] == small_db.fingerprint()
                assert canonical_json(body["result"]) == expected
            assert chaos.injected_corruptions == 3
            _, _, ready = _get(server, "/v1/readyz")
            assert ready["status"] == "degraded"
            assert ready["quarantined"] == 3
            text = registry.render_prometheus()
            assert "repro_snapshot_quarantined_total 3" in text
            assert ('repro_snapshot_swaps_total'
                    '{outcome="quarantined"} 3') in text


class TestSwapUnderLoadHTTP:
    """Satellite: 8 HTTP clients while snapshots swap underneath —
    every response internally consistent with exactly one
    generation."""

    QUERIES = [
        Query(metric="dpm"),
        Query(metric="count", group_by="manufacturer"),
        Query(metric="miles", group_by="month"),
        Query(metric="tags"),
    ]

    def test_http_responses_never_blend(self, small_db, other_db):
        expected = {}
        for db in (small_db, other_db):
            serial = QueryEngine(db)
            expected[db.fingerprint()] = {
                q.canonical(): canonical_json(serial.execute(q).value)
                for q in self.QUERIES}
        manager = SnapshotManager(small_db)
        failures: list[str] = []
        barrier = threading.Barrier(THREADS + 1)
        stop = threading.Event()

        def client(offset: int) -> None:
            barrier.wait()
            try:
                rounds = 0
                while not stop.is_set() and rounds < 200:
                    rounds += 1
                    q = self.QUERIES[(offset + rounds)
                                     % len(self.QUERIES)]
                    request = urllib.request.Request(
                        server.url + "/v1/query",
                        data=json.dumps(q.to_dict()).encode("utf-8"),
                        headers={"Content-Type": "application/json"},
                        method="POST")
                    with urllib.request.urlopen(
                            request, timeout=10) as res:
                        if res.status != 200:
                            failures.append(f"status {res.status}")
                            continue
                        body = json.loads(res.read())
                    known = expected.get(body["fingerprint"])
                    if known is None:
                        failures.append("unknown fingerprint")
                    elif (canonical_json(body["result"])
                          != known[q.canonical()]):
                        failures.append(
                            f"{q.metric}: blended generations")
            except Exception as exc:  # pragma: no cover
                failures.append(f"client {offset}: {exc!r}")

        def swapper() -> None:
            barrier.wait()
            for i in range(20):
                manager.swap_database(
                    other_db if i % 2 == 0 else small_db)
                time.sleep(0.005)
            stop.set()

        with QueryServer(manager, port=0, max_inflight=0,
                         deadline_s=0.0) as server:
            threads = [threading.Thread(target=client, args=(n,))
                       for n in range(THREADS)]
            threads.append(threading.Thread(target=swapper))
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        assert not failures
        assert manager.generation == 21
