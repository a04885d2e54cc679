"""Embedded JSON HTTP API over a query engine — stdlib only.

A :class:`~http.server.ThreadingHTTPServer` front end for
:class:`~repro.query.engine.QueryEngine`, hardened for always-on
serving.  The API surface is **versioned**: every endpoint lives
under ``/v1/``.

==============================  ==================================
``GET /v1/healthz``             liveness: status, version, db
                                fingerprint
``GET /v1/readyz``              readiness: snapshot generation +
                                degraded state (distinct from
                                liveness — see below)
``GET /v1/stats``               engine statistics (index + cache
                                counters)
``GET /v1/manufacturers``       manufacturers in the database
                                (paginable)
``GET /v1/metrics/dpm``         per-manufacturer DPM summaries
``GET /v1/metrics/apm``         per-manufacturer APM (Table VII)
``GET /v1/metrics/dpa``         per-manufacturer DPA (Table VI)
``GET|POST /v1/query``          the full typed query surface
                                (paginable when grouped)
``GET /metrics``                Prometheus text exposition
                                (infrastructure route, unversioned)
==============================  ==================================

**Versioning.**  The unversioned paths of earlier releases
(``/healthz``, ``/query``, …) are gone: they answer ``404
not_found`` and count under the ``<unknown>`` metric label like any
other unknown path.

**Error envelope.**  Every non-2xx response carries the same
structured body::

    {"error": {"code": "<machine-readable>",
               "message": "<human-readable>",
               "detail": <extra context or null>}}

Codes: ``invalid_query`` / ``bad_json`` / ``invalid_cursor`` /
``stale_cursor`` (400), ``not_found`` (404), ``insufficient_data``
(422), ``internal`` (500, always sanitized — never a traceback on
the wire), ``overloaded`` / ``draining`` / ``deadline_exceeded``
(503, with ``Retry-After`` and a ``retry_after_s`` detail field).

**Pagination.**  List-shaped responses (``/v1/manufacturers`` and
grouped ``/v1/query`` results) accept ``limit`` and ``cursor``.
Cursors are opaque, deterministic, and derived from the snapshot
fingerprint — a cursor issued against one generation is rejected as
``stale_cursor`` after a hot swap, so a paging client can never
silently blend generations.  Requests without either parameter get
the exact unpaginated body earlier releases served.

``GET /v1/query`` reads the query from the URL (``?metric=dpm&
group_by=manufacturer&manufacturer=Waymo&month_from=2015-01``;
repeat ``manufacturer`` to filter on several); ``POST /v1/query``
takes the same fields as a JSON object.  The ``/v1/metrics/*``
shortcuts accept the filter parameters too.

**Liveness vs readiness.**  ``/v1/healthz`` answers "is the process
up" and is always 200 while the server runs.  ``/v1/readyz`` answers
"should you send traffic": 200 ``ok`` normally, 200 ``degraded``
when the last snapshot-swap candidate was quarantined (we still
serve, from the last-good generation), 503 ``draining`` during
graceful shutdown.

**Admission control.**  At most ``max_inflight`` requests are
handled concurrently; excess load is shed with a structured
``503 + Retry-After`` instead of queueing without bound.  Each
admitted request gets a ``deadline_s`` budget; blowing it returns a
structured 503 naming the deadline.  ``/v1/healthz``,
``/v1/readyz``, and the ``/metrics`` exposition are exempt — health
probes and scrapes must work precisely when the server is saturated.

**Consistency.**  Each request captures the live
:class:`~repro.query.snapshot.Snapshot` exactly once and answers
entirely from it, so a hot-swap mid-request can never blend
generations in one response.
"""

from __future__ import annotations

import base64
import json
import socket
import socketserver
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from typing import Any, Callable, Mapping
from urllib.parse import parse_qs, urlsplit

from .. import __version__
from ..errors import InsufficientDataError, QueryError
from ..obs.metrics import (
    HTTP_LATENCY,
    HTTP_REQUESTS,
    INDEX_RECORDS,
    QUERY_CACHE_EVICTIONS,
    QUERY_CACHE_HITS,
    QUERY_CACHE_MISSES,
    QUERY_CACHE_SIZE,
    REQUEST_TIMEOUTS,
    REQUESTS_INFLIGHT,
    REQUESTS_SHED,
    MetricsRegistry,
    default_registry,
)
from ..pipeline.store import FailureDatabase
from .engine import Query, QueryEngine
from .snapshot import DirectoryWatcher, SnapshotManager

#: Metric families reachable as ``/v1/metrics/<name>`` shortcuts.
METRIC_SHORTCUTS = ("dpm", "apm", "dpa")

#: The current API version prefix.
API_VERSION = "v1"

#: Canonical (versioned) API routes.
_V1_ROUTES = frozenset(
    {"/v1/healthz", "/v1/readyz", "/v1/stats", "/v1/manufacturers",
     "/v1/query"}
    | {f"/v1/metrics/{name}" for name in METRIC_SHORTCUTS})

#: Routes the request metrics label individually; anything else is
#: folded into ``<unknown>`` so scanners can't explode cardinality.
_KNOWN_ROUTES = _V1_ROUTES | {"/", "/metrics"}

#: Canonical routes exempt from admission control and deadlines:
#: probes and scrapes must answer precisely when the server is
#: saturated or draining.
_EXEMPT_ROUTES = frozenset({"/v1/healthz", "/v1/readyz", "/metrics"})

#: ``Retry-After`` seconds suggested on shed/drain/deadline 503s.
RETRY_AFTER_S = 1

#: Largest request body read, in bytes.  A query spec is a few hundred
#: bytes; a longer ``Content-Length`` gets a 413 before any is read.
MAX_BODY_BYTES = 64 * 1024

#: Seconds a connection may stall on a read or a write before its
#: handler gives up and closes it.  Without a bound, an idle keep-alive
#: connection or a request whose client never finishes sending it
#: holds a server thread for as long as the socket stays open.
CONNECTION_TIMEOUT_S = 30.0

#: How many fingerprint characters a page cursor embeds.
_CURSOR_FP_CHARS = 12

#: Envelope codes for the requests ``http.server`` rejects before any
#: route sees them (see :meth:`_Handler.send_error`).
_PROTOCOL_ERROR_CODES: Mapping[int, str] = {
    400: "bad_request",
    414: "request_line_too_long",
    431: "headers_too_large",
    501: "method_not_implemented",
    505: "http_version_not_supported",
}


def error_envelope(code: str, message: str,
                   detail: Any = None) -> dict[str, Any]:
    """The unified error body every non-2xx response carries."""
    return {"error": {"code": code, "message": message,
                      "detail": detail}}


class _CursorError(Exception):
    """A bad page cursor (carries the envelope code to use)."""

    def __init__(self, code: str, message: str) -> None:
        super().__init__(message)
        self.code = code


def encode_cursor(fingerprint: str, offset: int) -> str:
    """Encode an opaque, deterministic page cursor.

    The cursor embeds a fingerprint prefix so it can only be redeemed
    against the snapshot that issued it — paging across a hot swap is
    a ``stale_cursor`` error, never a silent blend of generations.
    """
    token = f"{fingerprint[:_CURSOR_FP_CHARS]}:{offset}"
    return base64.urlsafe_b64encode(
        token.encode("ascii")).decode("ascii").rstrip("=")


def decode_cursor(cursor: str, fingerprint: str) -> int:
    """Decode a page cursor back to an offset, or raise.

    Raises :class:`_CursorError` with ``invalid_cursor`` for a
    malformed token and ``stale_cursor`` for a token minted by a
    different snapshot generation.
    """
    try:
        padded = cursor + "=" * (-len(cursor) % 4)
        token = base64.urlsafe_b64decode(
            padded.encode("ascii")).decode("ascii")
        prefix, sep, offset_text = token.partition(":")
        if not sep:
            raise ValueError(token)
        offset = int(offset_text)
        if offset < 0:
            raise ValueError(offset)
    except (ValueError, UnicodeError) as exc:
        raise _CursorError(
            "invalid_cursor",
            f"cursor {cursor!r} is not a valid page cursor") from exc
    if prefix != fingerprint[:_CURSOR_FP_CHARS]:
        raise _CursorError(
            "stale_cursor",
            "cursor was issued against a different database snapshot; "
            "restart pagination from the first page")
    return offset


def _page_args(limit_value: Any,
               cursor_value: Any) -> tuple[int | None, str | None]:
    """Validate raw ``limit``/``cursor`` values from either transport."""
    limit: int | None = None
    if limit_value is not None:
        try:
            limit = int(limit_value)
        except (TypeError, ValueError):
            raise QueryError(
                f"limit must be a positive integer, "
                f"got {limit_value!r}") from None
        if limit < 1:
            raise QueryError(
                f"limit must be a positive integer, got {limit}")
    cursor = None
    if cursor_value is not None:
        cursor = str(cursor_value)
    return limit, cursor


def _paginate(items: list, fingerprint: str, limit: int | None,
              cursor: str | None) -> tuple[list, dict[str, Any]]:
    """Slice one stable-ordered item list into a page + page info."""
    offset = decode_cursor(cursor, fingerprint) if cursor else 0
    size = limit if limit is not None else max(len(items) - offset, 0)
    window = items[offset:offset + size]
    next_offset = offset + len(window)
    next_cursor = (encode_cursor(fingerprint, next_offset)
                   if next_offset < len(items) else None)
    page = {
        "limit": limit,
        "offset": offset,
        "total": len(items),
        "next_cursor": next_cursor,
    }
    return window, page


def _query_from_params(params: Mapping[str, list[str]]) -> Query:
    """Build a query from URL parameters (``GET /v1/query`` and the
    ``/v1/metrics/*`` filters)."""
    known = {"metric", "group_by", "manufacturer", "manufacturers",
             "month_from", "month_to", "tag", "category"}
    unknown = sorted(set(params) - known)
    if unknown:
        raise QueryError(
            f"unknown query parameter(s): {', '.join(unknown)}; "
            f"known: {', '.join(sorted(known | {'limit', 'cursor'}))}")
    data: dict[str, Any] = {}
    if "metric" in params:
        data["metric"] = params["metric"][-1]
    for key in ("group_by", "month_from", "month_to", "tag",
                "category"):
        if key in params:
            data[key] = params[key][-1]
    names = list(params.get("manufacturer", []))
    for value in params.get("manufacturers", []):
        names.extend(part.strip() for part in value.split(",")
                     if part.strip())
    if names:
        data["manufacturers"] = tuple(names)
    return Query.from_dict(data)


class _QueryHTTPServer(ThreadingHTTPServer):
    """The HTTP server plus serving state the handler reads.

    Owns admission accounting (in-flight count, drain flag) — the
    handler calls :meth:`try_admit`/:meth:`release` around every
    non-exempt request — and the request metric families it records
    into ``registry``.
    """

    daemon_threads = True

    # Set by QueryServer right after construction.
    snapshots: SnapshotManager
    verbose: bool = False
    max_inflight: int = 0
    deadline_s: float = 0.0
    #: Override for the ``/metrics`` body (the pre-fork worker plugs
    #: in cross-worker aggregation here); ``None`` renders the local
    #: registry.
    metrics_renderer: Callable[[MetricsRegistry], str] | None = None

    def __init__(self, server_address, handler_class, *,
                 registry: MetricsRegistry,
                 reuse_port: bool = False) -> None:
        self._reuse_port = reuse_port
        super().__init__(server_address, handler_class)
        self._admission = threading.Condition()
        self._inflight = 0
        self._draining = False
        self.metrics = registry
        self.http_requests = registry.counter(
            HTTP_REQUESTS, "HTTP requests by route and status",
            ("route", "status"))
        self.http_latency = registry.histogram(
            HTTP_LATENCY, "HTTP request latency by route", ("route",))
        self.shed_total = registry.counter(
            REQUESTS_SHED,
            "Requests shed by admission control (503 + Retry-After)")
        self.timeout_total = registry.counter(
            REQUEST_TIMEOUTS,
            "Requests that blew their per-request deadline")
        self.inflight_gauge = registry.gauge(
            REQUESTS_INFLIGHT, "Requests currently being handled")

    def handle_error(self, request, client_address) -> None:
        """Skip the stderr traceback for a client that hung up."""
        # A peer closing its socket before (or while) its response is
        # written is routine for a server, not a fault to report.
        if isinstance(sys.exc_info()[1],
                      (BrokenPipeError, ConnectionResetError)):
            return
        super().handle_error(request, client_address)

    def server_bind(self) -> None:
        if self._reuse_port:
            # Pre-fork mode: every worker binds its own socket to the
            # same port and the kernel load-balances accepts.
            self.socket.setsockopt(
                socket.SOL_SOCKET, socket.SO_REUSEPORT, 1)
        # Not HTTPServer.server_bind: its ``socket.getfqdn`` is a
        # reverse-DNS lookup of the bind address, for a name nothing
        # here reads.
        socketserver.TCPServer.server_bind(self)
        self.server_name, self.server_port = self.server_address[:2]

    # -- admission -----------------------------------------------------

    @property
    def draining(self) -> bool:
        """Whether graceful shutdown has begun."""
        return self._draining

    def try_admit(self) -> str | None:
        """Admit one request; returns the rejection reason instead
        when draining or saturated (never blocks)."""
        with self._admission:
            if self._draining:
                return "draining"
            if (self.max_inflight
                    and self._inflight >= self.max_inflight):
                return "overloaded"
            self._inflight += 1
            inflight = self._inflight
        self.inflight_gauge.set(inflight)
        return None

    def release(self) -> None:
        """Release one admitted request (wakes the drain waiter)."""
        with self._admission:
            self._inflight -= 1
            inflight = self._inflight
            if inflight == 0:
                self._admission.notify_all()
        self.inflight_gauge.set(inflight)

    def begin_drain(self) -> None:
        """Stop admitting new work (existing requests finish)."""
        with self._admission:
            self._draining = True

    def wait_drained(self, timeout: float) -> bool:
        """Block until in-flight hits zero (or ``timeout`` passes)."""
        deadline = time.monotonic() + timeout
        with self._admission:
            while self._inflight > 0:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    return False
                self._admission.wait(remaining)
        return True


class _Handler(BaseHTTPRequestHandler):
    """Routes one request; serving state lives on the server object."""

    server_version = f"repro-query/{__version__}"
    protocol_version = "HTTP/1.1"
    # Headers and body go out as separate writes; without TCP_NODELAY
    # Nagle holds the second one for the peer's delayed ACK (~40ms
    # per request on keep-alive connections).
    disable_nagle_algorithm = True
    # ``BaseHTTPRequestHandler`` closes a connection whose read or
    # write stalls this long (an idle or half-sent request).
    timeout = CONNECTION_TIMEOUT_S
    server: _QueryHTTPServer

    # -- plumbing ------------------------------------------------------

    @property
    def engine(self) -> QueryEngine:
        """The engine of the snapshot captured when this request
        started — the only generation anything in the response may
        come from."""
        return self._snapshot.engine

    def log_message(self, format: str, *args: Any) -> None:
        if getattr(self.server, "verbose", False):
            super().log_message(format, *args)

    def _send_json(self, status: int, payload: Any,
                   headers: Mapping[str, str] | None = None) -> None:
        body = json.dumps(payload).encode("utf-8")
        self._send_body(status, "application/json", body,
                        headers=headers)

    def _send_body(self, status: int, content_type: str, body: bytes,
                   headers: Mapping[str, str] | None = None) -> None:
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        for name, value in (headers or {}).items():
            self.send_header(name, value)
        self.end_headers()
        # Count the request before the client can read its answer, so
        # a scrape that follows a read always sees it.
        self._observe(status)
        self.wfile.write(body)

    def send_error(self, code: int, message: str | None = None,
                   explain: str | None = None) -> None:
        """Answer a request ``http.server`` rejected before routing (a
        malformed or oversized request line, too many or too long
        headers, an unsupported version or method) with the JSON
        envelope, and close the connection."""
        # A request line without a usable version leaves the stdlib
        # assuming HTTP/0.9, which would suppress the status line.
        self.request_version = self.protocol_version
        self._route = "<unknown>"
        self._started = None  # rejected before routing: no latency
        self.log_error("code %d, message %s", code, message)
        self._send_json(code, error_envelope(
            _PROTOCOL_ERROR_CODES.get(code, "bad_request"),
            message or self.responses.get(code, ("error",))[0], explain),
            headers={"Connection": "close"})

    def _observe(self, status: int) -> None:
        """Record the request into the server's metrics registry."""
        server = self.server
        route = getattr(self, "_route", "<unknown>")
        server.http_requests.labels(route, str(status)).inc()
        started = getattr(self, "_started", None)
        if started is not None:
            server.http_latency.labels(route).observe(
                time.perf_counter() - started)

    # -- request lifecycle ---------------------------------------------

    def _begin(self, path: str) -> str:
        """Per-request state reset (handlers are reused across
        keep-alive requests on one connection)."""
        self._started = time.perf_counter()
        self._snapshot = self.server.snapshots.current()
        self._admitted = False
        route = urlsplit(path).path.rstrip("/") or "/"
        self._route = (route if route in _KNOWN_ROUTES
                       else "<unknown>")
        return route

    def _admit(self, route: str) -> bool:
        """Admission control for non-exempt routes.

        Returns whether the request may proceed; a shed request has
        already been answered with a structured ``503 + Retry-After``.
        """
        if route in _EXEMPT_ROUTES:
            return True
        reason = self.server.try_admit()
        if reason is None:
            self._admitted = True
            return True
        if reason == "overloaded":
            self.server.shed_total.inc()
        self._send_json(
            503,
            error_envelope(reason, f"server is {reason}; retry later",
                           {"retry_after_s": RETRY_AFTER_S}),
            headers={"Retry-After": str(RETRY_AFTER_S)})
        return False

    def _finish(self) -> None:
        if self._admitted:
            self._admitted = False
            self.server.release()

    def _deadline_exceeded(self) -> float | None:
        """Elapsed seconds when the admitted request blew its budget
        (``None`` otherwise — including for exempt requests)."""
        deadline = self.server.deadline_s
        if not self._admitted or deadline <= 0:
            return None
        elapsed = time.perf_counter() - self._started
        return elapsed if elapsed > deadline else None

    def _dispatch(self, handler, *args) -> None:
        try:
            status, payload = handler(*args)
        except QueryError as exc:
            status, payload = 400, error_envelope(
                "invalid_query", str(exc))
        except _CursorError as exc:
            status, payload = 400, error_envelope(exc.code, str(exc))
        except InsufficientDataError as exc:
            status, payload = 422, error_envelope(
                "insufficient_data", str(exc))
        except Exception as exc:
            # Sanitized: whatever blew up, the wire sees no detail.
            self.log_error("unhandled error on %s: %r",
                           self._route, exc)
            status, payload = 500, error_envelope(
                "internal", "internal server error")
        elapsed = self._deadline_exceeded()
        if elapsed is not None:
            self.server.timeout_total.inc()
            self._send_json(
                503,
                error_envelope(
                    "deadline_exceeded",
                    f"deadline exceeded: request took {elapsed:.3f}s "
                    f"against a {self.server.deadline_s:.3f}s budget",
                    {"elapsed_s": round(elapsed, 3),
                     "deadline_s": self.server.deadline_s,
                     "retry_after_s": RETRY_AFTER_S}),
                headers={"Retry-After": str(RETRY_AFTER_S)})
            return
        self._send_json(status, payload)

    def _not_found(self) -> None:
        self._send_json(404, error_envelope(
            "not_found", f"unknown path {self.path!r}",
            {"api_version": API_VERSION}))

    # -- routing -------------------------------------------------------

    def do_GET(self) -> None:  # noqa: N802 (http.server API)
        route = self._begin(self.path)
        if not self._admit(route):
            return
        try:
            params = parse_qs(urlsplit(self.path).query)
            if route == "/v1/healthz":
                self._dispatch(self._healthz)
            elif route == "/v1/readyz":
                self._dispatch(self._readyz)
            elif route == "/v1/stats":
                self._dispatch(self._stats)
            elif route == "/v1/manufacturers":
                self._dispatch(self._manufacturers, params)
            elif route == "/v1/query":
                self._dispatch(self._query_get, params)
            elif route == "/metrics":
                self._metrics_exposition()
            elif route.startswith("/v1/metrics/"):
                self._dispatch(self._metric,
                               route[len("/v1/metrics/"):], params)
            else:
                self._not_found()
        finally:
            self._finish()

    def do_POST(self) -> None:  # noqa: N802 (http.server API)
        route = self._begin(self.path)
        body = self._read_body()
        if body is None:
            return
        if route != "/v1/query":
            self._not_found()
            return
        if not self._admit(route):
            return
        try:
            try:
                data = json.loads(body or b"{}")
            except (ValueError, json.JSONDecodeError) as exc:
                self._send_json(400, error_envelope(
                    "bad_json",
                    f"request body is not valid JSON: {exc}"))
                return
            self._dispatch(self._query_post, data)
        finally:
            self._finish()

    def _read_body(self) -> bytes | None:
        """The request body, or ``None`` once a bad length is answered.

        ``Content-Length`` is checked before anything is read (a
        negative one would make ``rfile.read`` block until EOF), and
        the body is read before admission, so no request holds a slot
        while its client trickles bytes.  A rejected request closes
        its connection: the unread body would otherwise be parsed as
        the next request.
        """
        raw = self.headers.get("Content-Length", "0")
        try:
            length = int(raw)
        except ValueError:
            length = -1
        if length < 0:
            self._send_json(400, error_envelope(
                "invalid_content_length",
                f"Content-Length must be a non-negative integer, "
                f"got {raw!r}"), headers={"Connection": "close"})
            return None
        if length > MAX_BODY_BYTES:
            self._send_json(413, error_envelope(
                "payload_too_large",
                f"request body of {length} bytes exceeds the "
                f"{MAX_BODY_BYTES}-byte limit",
                {"max_bytes": MAX_BODY_BYTES}),
                headers={"Connection": "close"})
            return None
        return self.rfile.read(length)

    # -- endpoints -----------------------------------------------------

    def _healthz(self) -> tuple[int, Any]:
        """Liveness: the process is up (always 200 while serving)."""
        return 200, {
            "status": "ok",
            "version": __version__,
            "fingerprint": self.engine.fingerprint,
        }

    def _readyz(self) -> tuple[int, Any]:
        """Readiness: should a load balancer send traffic here.

        Reads the *manager*, not the request's captured snapshot —
        readiness describes what the next request would get.
        """
        manager = self.server.snapshots
        stats = manager.stats()
        if self.server.draining:
            status, state = 503, "draining"
        elif stats["degraded"]:
            status, state = 200, "degraded"
        else:
            status, state = 200, "ok"
        return status, {
            "status": state,
            "generation": stats["snapshot"]["generation"],
            "fingerprint": stats["snapshot"]["fingerprint"],
            "quarantined": stats["quarantined"],
            "last_error": stats["last_error"],
        }

    def _stats(self) -> tuple[int, Any]:
        return 200, self.engine.stats()

    def _manufacturers(self, params) -> tuple[int, Any]:
        limit, cursor = _page_args(
            params.get("limit", [None])[-1],
            params.get("cursor", [None])[-1])
        names = list(self.engine.index.manufacturers)
        if limit is None and cursor is None:
            return 200, {"manufacturers": names}
        window, page = _paginate(names, self.engine.fingerprint,
                                 limit, cursor)
        return 200, {"manufacturers": window, "page": page}

    def _query_get(self, params) -> tuple[int, Any]:
        params = dict(params)
        limit, cursor = _page_args(
            params.pop("limit", [None])[-1],
            params.pop("cursor", [None])[-1])
        query = _query_from_params(params)
        result = self.engine.execute(query)
        return 200, self._query_body(result, limit, cursor)

    def _query_post(self, data) -> tuple[int, Any]:
        if not isinstance(data, dict):
            raise QueryError("request body must be a JSON object")
        data = dict(data)
        limit, cursor = _page_args(data.pop("limit", None),
                                   data.pop("cursor", None))
        result = self.engine.execute(Query.from_dict(data))
        return 200, self._query_body(result, limit, cursor)

    def _query_body(self, result, limit: int | None,
                    cursor: str | None) -> Any:
        """The ``/v1/query`` body — paginated only on request.

        The page is a *view* over the (possibly cached) result value:
        the cached dict itself is never mutated, and an unpaginated
        request returns the exact body earlier releases served.
        """
        body = result.to_dict()
        if limit is None and cursor is None:
            return body
        if result.query.group_by is None or not isinstance(
                result.value, dict):
            raise QueryError(
                "pagination requires a grouped query: set group_by, "
                "or drop the limit/cursor parameters")
        items = list(result.value.items())
        window, page = _paginate(items, result.fingerprint, limit,
                                 cursor)
        body["result"] = dict(window)
        body["page"] = page
        return body

    def _metrics_exposition(self) -> None:
        """``GET /metrics``: the registry as Prometheus text.

        Cache and index levels are *sampled at scrape time* — they are
        gauges owned by the engine, not counters the request path
        maintains — so a scrape always reflects the live state.  A
        ``metrics_renderer`` hook on the server object overrides the
        final rendering (the pre-fork worker aggregates every
        sibling's registry dump there).
        """
        registry: MetricsRegistry = self.server.metrics
        stats = self.engine.stats()
        cache = stats["cache"]
        registry.gauge(
            QUERY_CACHE_HITS, "Query-result LRU hits").set(
            cache["hits"])
        registry.gauge(
            QUERY_CACHE_MISSES, "Query-result LRU misses").set(
            cache["misses"])
        registry.gauge(
            QUERY_CACHE_EVICTIONS, "Query-result LRU evictions").set(
            cache["evictions"])
        registry.gauge(
            QUERY_CACHE_SIZE, "Query-result LRU resident entries").set(
            cache["size"])
        index_g = registry.gauge(
            INDEX_RECORDS, "Records in the served database index",
            ("kind",))
        for kind in ("disengagements", "accidents", "mileage_cells"):
            index_g.labels(kind).set(stats["index"][kind])
        renderer = getattr(self.server, "metrics_renderer", None)
        if renderer is not None:
            text = renderer(registry)
        else:
            text = registry.render_prometheus()
        self._send_body(200, "text/plain; version=0.0.4",
                        text.encode("utf-8"))

    def _metric(self, name: str, params) -> tuple[int, Any]:
        if name not in METRIC_SHORTCUTS:
            return 404, error_envelope(
                "not_found", f"unknown metric endpoint {name!r}",
                {"known": list(METRIC_SHORTCUTS)})
        if "metric" in params:
            raise QueryError(
                "/v1/metrics/* fixes the metric; drop the 'metric' "
                "parameter or use /v1/query")
        query = _query_from_params({**params, "metric": [name]})
        return 200, self.engine.execute(query).to_dict()


class QueryServer:
    """A running (or startable) HTTP server around one engine.

    Usable blocking (:meth:`serve_forever`) or as a context manager
    that serves from a daemon thread — the test/embedding mode::

        with QueryServer(db, port=0) as server:
            urllib.request.urlopen(server.url + "/v1/healthz")

    Accepts a raw :class:`~repro.pipeline.store.FailureDatabase`, a
    prebuilt :class:`~repro.query.engine.QueryEngine`, or a
    :class:`~repro.query.snapshot.SnapshotManager` (the always-on
    mode: swap snapshots underneath while serving).  ``max_inflight``
    bounds concurrent admitted requests (0 = unbounded);
    ``deadline_s`` is the per-request budget (0 = none);
    ``drain_timeout_s`` caps how long :meth:`shutdown` waits for
    in-flight requests before closing anyway.
    """

    def __init__(self, db: FailureDatabase | QueryEngine
                 | SnapshotManager,
                 host: str = "127.0.0.1", port: int = 8350, *,
                 cache_size: int = 256,
                 verbose: bool = False,
                 registry: MetricsRegistry | None = None,
                 max_inflight: int = 64,
                 deadline_s: float = 10.0,
                 drain_timeout_s: float = 5.0,
                 reuse_port: bool = False) -> None:
        if max_inflight < 0:
            raise ValueError(
                f"max_inflight must be >= 0 (0 = unbounded), got "
                f"{max_inflight}")
        # The process-global registry by default, so a pipeline run in
        # this process shows up on the same /metrics scrape.
        self.registry = registry or default_registry()
        if isinstance(db, SnapshotManager):
            self.snapshots = db
        else:
            self.snapshots = SnapshotManager(
                db, cache_size=cache_size, registry=self.registry)
        self.drain_timeout_s = drain_timeout_s
        httpd = _QueryHTTPServer((host, port), _Handler,
                                 registry=self.registry,
                                 reuse_port=reuse_port)
        httpd.snapshots = self.snapshots
        httpd.verbose = verbose
        httpd.max_inflight = max_inflight
        httpd.deadline_s = deadline_s
        self._httpd = httpd
        self._thread: threading.Thread | None = None
        self._watch_thread: threading.Thread | None = None
        self._watch_stop = threading.Event()

    @property
    def engine(self) -> QueryEngine:
        """The engine of the currently served snapshot."""
        return self.snapshots.engine

    @property
    def host(self) -> str:
        """Bound host."""
        return self._httpd.server_address[0]

    @property
    def port(self) -> int:
        """Bound port (the real one, also when constructed with 0)."""
        return self._httpd.server_address[1]

    @property
    def url(self) -> str:
        """Base URL of the running server."""
        return f"http://{self.host}:{self.port}"

    @property
    def metrics_renderer(self) -> Callable[[MetricsRegistry], str] | None:
        """Override for the ``/metrics`` body (see the handler)."""
        return self._httpd.metrics_renderer

    @metrics_renderer.setter
    def metrics_renderer(
            self, renderer: Callable[[MetricsRegistry], str] | None,
            ) -> None:
        self._httpd.metrics_renderer = renderer

    def serve_forever(self) -> None:
        """Serve on the calling thread until :meth:`shutdown`."""
        self._httpd.serve_forever()

    def start(self) -> "QueryServer":
        """Serve from a background daemon thread."""
        self._thread = threading.Thread(
            target=self._httpd.serve_forever,
            name="repro-query-server", daemon=True)
        self._thread.start()
        return self

    def watch(self, directory: str | Path,
              interval_s: float = 2.0) -> "QueryServer":
        """Poll ``directory`` for database drops; hot-swap each one.

        New or changed ``*.json`` files are loaded through the
        snapshot manager — a corrupt drop is quarantined (``/readyz``
        goes ``degraded``) and the last-good snapshot keeps serving.
        """
        watcher = DirectoryWatcher(directory)

        def loop() -> None:
            while not self._watch_stop.is_set():
                for path in watcher.poll():
                    try:
                        self.snapshots.load(path)
                    except OSError:
                        continue  # vanished mid-read; next poll
                self._watch_stop.wait(interval_s)

        self._watch_thread = threading.Thread(
            target=loop, name="repro-query-watch", daemon=True)
        self._watch_thread.start()
        return self

    def shutdown(self) -> None:
        """Graceful stop: drain in-flight requests, then close.

        New non-exempt requests are refused (503 ``draining``) the
        moment this is called; existing ones get up to
        ``drain_timeout_s`` to finish before the socket closes.
        """
        self._watch_stop.set()
        if self._watch_thread is not None:
            self._watch_thread.join(timeout=5.0)
            self._watch_thread = None
        self._httpd.begin_drain()
        self._httpd.wait_drained(self.drain_timeout_s)
        self._httpd.shutdown()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None
        self._httpd.server_close()

    def __enter__(self) -> "QueryServer":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.shutdown()
