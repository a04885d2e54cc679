"""Tests for the ``/v1`` API: versioned routes (the unversioned paths
of earlier releases are gone), the unified error envelope on every
non-2xx status, and cursor-based pagination with snapshot-scoped
cursors.
"""

from __future__ import annotations

import base64
import json
import urllib.error
import urllib.request

import pytest

from repro.obs.metrics import MetricsRegistry
from repro.query.engine import QueryEngine
from repro.query.server import (
    _V1_ROUTES,
    QueryServer,
    decode_cursor,
    encode_cursor,
    error_envelope,
)
from repro.query.snapshot import SnapshotManager


@pytest.fixture(scope="module")
def server(small_db):
    with QueryServer(small_db, port=0,
                     registry=MetricsRegistry()) as running:
        yield running


def _get(server, path):
    with urllib.request.urlopen(server.url + path, timeout=10) as res:
        return res.status, dict(res.headers), json.loads(res.read())


def _error(server, path):
    try:
        _get(server, path)
    except urllib.error.HTTPError as exc:
        return exc.code, dict(exc.headers), json.loads(exc.read())
    raise AssertionError(f"{path} unexpectedly succeeded")


class TestVersionedRoutes:
    CANONICAL = ["/v1/healthz", "/v1/readyz", "/v1/stats",
                 "/v1/manufacturers", "/v1/query?metric=dpm",
                 "/v1/metrics/dpm"]

    def test_v1_routes_answer(self, server):
        for path in self.CANONICAL:
            status, _headers, _body = _get(server, path)
            assert status == 200, path

    def test_unversioned_paths_answer_not_found(self, server):
        for route in sorted(_V1_ROUTES):
            legacy = route[len("/v1"):]
            code, headers, body = _error(server, legacy + "?metric=dpm")
            assert code == 404, legacy
            assert body["error"]["code"] == "not_found"
            assert "Deprecation" not in headers, legacy
            assert "Link" not in headers, legacy

    def test_unversioned_paths_count_as_unknown_route(self, small_db):
        with QueryServer(small_db, port=0,
                         registry=MetricsRegistry()) as fresh:
            for route in sorted(_V1_ROUTES):
                _error(fresh, route[len("/v1"):] + "?metric=dpm")
            series = fresh.registry.dump()[
                "repro_http_requests_total"]["series"]
        assert {key[0] for key in series} == {"<unknown>"}

    def test_unknown_route_never_expands_labels(self, server):
        _error(server, "/v1/frobnicate")
        _error(server, "/frobnicate")
        dump = server.registry.dump()
        series = dump["repro_http_requests_total"]["series"]
        routes = {key[0] for key in series}
        assert "<unknown>" in routes
        assert "/v1/frobnicate" not in routes


class TestErrorEnvelope:
    def test_envelope_shape_on_every_code(self, server, small_db):
        cases = {
            400: "/v1/query?metric=frobnicate",
            404: "/v1/nope",
        }
        for expected, path in cases.items():
            code, _, body = _error(server, path)
            assert code == expected
            assert set(body) == {"error"}
            assert set(body["error"]) == {"code", "message",
                                          "detail"}

    def test_codes(self, server):
        for path, expected_code in [
                ("/v1/query?metric=frobnicate", "invalid_query"),
                ("/v1/nope", "not_found"),
                ("/v1/metrics/frobnicate", "not_found"),
                ("/v1/manufacturers?cursor=%21%21", "invalid_cursor"),
                ("/v1/query?metric=count&limit=3", "invalid_query"),
        ]:
            _, _, body = _error(server, path)
            assert body["error"]["code"] == expected_code, path

    def test_bad_json_envelope(self, server):
        request = urllib.request.Request(
            server.url + "/v1/query", data=b"{not json",
            headers={"Content-Type": "application/json"},
            method="POST")
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request, timeout=10)
        body = json.loads(excinfo.value.read())
        assert excinfo.value.code == 400
        assert body["error"]["code"] == "bad_json"

    def test_envelope_helper(self):
        assert error_envelope("x", "y") == {
            "error": {"code": "x", "message": "y", "detail": None}}


class TestCursors:
    def test_roundtrip(self):
        cursor = encode_cursor("abcdef0123456789", 7)
        assert decode_cursor(cursor, "abcdef0123456789") == 7

    def test_deterministic(self):
        assert (encode_cursor("abcdef0123456789", 3)
                == encode_cursor("abcdef0123456789", 3))

    def test_stale_on_other_fingerprint(self):
        from repro.query.server import _CursorError

        cursor = encode_cursor("abcdef0123456789", 7)
        with pytest.raises(_CursorError) as excinfo:
            decode_cursor(cursor, "ffff000000000000")
        assert excinfo.value.code == "stale_cursor"

    def test_invalid_tokens(self):
        from repro.query.server import _CursorError

        for bad in ("!!!", "", "AAAA",
                    base64.urlsafe_b64encode(b"no-colon").decode(),
                    base64.urlsafe_b64encode(b"fp:-3").decode()):
            with pytest.raises(_CursorError) as excinfo:
                decode_cursor(bad, "abcdef0123456789")
            assert excinfo.value.code == "invalid_cursor"


class TestPagination:
    def test_manufacturers_walk(self, server, small_db):
        everything = _get(server, "/v1/manufacturers")[2]
        assert "page" not in everything  # unpaginated = legacy body
        collected, cursor = [], None
        for _ in range(100):
            path = "/v1/manufacturers?limit=1"
            if cursor:
                path += f"&cursor={cursor}"
            _, _, body = _get(server, path)
            assert body["page"]["total"] == len(
                everything["manufacturers"])
            collected.extend(body["manufacturers"])
            cursor = body["page"]["next_cursor"]
            if cursor is None:
                break
        assert collected == everything["manufacturers"]

    def test_grouped_query_walk(self, server, small_db):
        full = _get(server,
                    "/v1/query?metric=dpm&group_by=manufacturer")[2]
        assert "page" not in full
        merged, cursor = {}, None
        for _ in range(100):
            path = ("/v1/query?metric=dpm&group_by=manufacturer"
                    "&limit=1")
            if cursor:
                path += f"&cursor={cursor}"
            _, _, body = _get(server, path)
            assert len(body["result"]) <= 1
            assert body["fingerprint"] == full["fingerprint"]
            merged.update(body["result"])
            cursor = body["page"]["next_cursor"]
            if cursor is None:
                break
        assert merged == full["result"]

    def test_post_pagination(self, server):
        payload = {"metric": "dpm", "group_by": "manufacturer",
                   "limit": 1}
        request = urllib.request.Request(
            server.url + "/v1/query",
            data=json.dumps(payload).encode("utf-8"),
            headers={"Content-Type": "application/json"},
            method="POST")
        with urllib.request.urlopen(request, timeout=10) as res:
            body = json.loads(res.read())
        assert len(body["result"]) == 1
        assert body["page"]["limit"] == 1

    def test_pagination_does_not_corrupt_cache(self, server):
        # A paginated request slices a view; the cached full result
        # must stay intact for the next unpaginated request.
        full_before = _get(
            server, "/v1/query?metric=count&group_by=manufacturer")[2]
        _get(server,
             "/v1/query?metric=count&group_by=manufacturer&limit=1")
        full_after = _get(
            server, "/v1/query?metric=count&group_by=manufacturer")[2]
        assert full_after["result"] == full_before["result"]

    def test_bad_limit(self, server):
        for bad in ("0", "-1", "zebra"):
            code, _, body = _error(
                server, f"/v1/manufacturers?limit={bad}")
            assert code == 400
            assert body["error"]["code"] == "invalid_query"

    def test_cursor_rejected_after_swap(self, small_db, db):
        manager = SnapshotManager(small_db)
        with QueryServer(manager, port=0,
                         registry=MetricsRegistry()) as server:
            _, _, page = _get(server, "/v1/manufacturers?limit=1")
            cursor = page["page"]["next_cursor"]
            assert cursor
            assert manager.swap_engine(QueryEngine(db))
            code, _, body = _error(
                server, f"/v1/manufacturers?cursor={cursor}")
            assert code == 400
            assert body["error"]["code"] == "stale_cursor"

    def test_cursor_offset_past_end(self, server, small_db):
        fingerprint = QueryEngine(small_db).fingerprint
        cursor = encode_cursor(fingerprint, 10_000)
        _, _, body = _get(server,
                          f"/v1/manufacturers?cursor={cursor}")
        assert body["manufacturers"] == []
        assert body["page"]["next_cursor"] is None
