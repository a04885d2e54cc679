"""Broken and hostile HTTP clients against the query server.

A client that never finishes sending its request, one that leaves a
keep-alive connection idle, and one that hangs up before its response
is written must cost the server nothing lasting: the handler closes a
stalled connection after its timeout, ``/v1/healthz`` keeps answering,
and stderr stays clean.  A malformed request gets the JSON error
envelope over HTTP/1.1, like every other non-2xx answer.
"""

from __future__ import annotations

import json
import socket
import struct
import threading
import urllib.request

import pytest

from repro.obs import MetricsRegistry
from repro.obs.metrics import HTTP_REQUESTS
from repro.query import QueryServer
from repro.query import server as server_module

#: Handler timeout for these tests, shrunk from the shipped value.
TIMEOUT_S = 0.2

#: How long a client waits for the server to close a connection.
CLOSE_WAIT_S = 5.0

HALF_SENT = b"GET /v1/healthz HTTP/1.1\r\n"


@pytest.fixture
def server(monkeypatch, small_db):
    # The tests shrink the timeout every handler ships with; they must
    # not supply one the server would otherwise lack.
    assert server_module._Handler.timeout \
        == server_module.CONNECTION_TIMEOUT_S > 0
    monkeypatch.setattr(server_module._Handler, "timeout", TIMEOUT_S)
    with QueryServer(small_db, port=0) as running:
        yield running


def _healthz(server) -> int:
    with urllib.request.urlopen(server.url + "/v1/healthz",
                                timeout=10) as response:
        return response.status


def _connect(server) -> socket.socket:
    return socket.create_connection((server.host, server.port),
                                    timeout=CLOSE_WAIT_S)


def _read_until_closed(sock: socket.socket) -> bytes | None:
    """Everything the server sends before it closes ``sock``, or
    ``None`` when it keeps the connection open past CLOSE_WAIT_S."""
    received = b""
    try:
        while chunk := sock.recv(4096):
            received += chunk
    except TimeoutError:
        return None
    return received


class TestStalledConnections:
    def test_half_sent_request_is_closed(self, server):
        with _connect(server) as sock:
            sock.sendall(HALF_SENT)
            assert _read_until_closed(sock) == b""

    def test_idle_keep_alive_connection_is_closed(self, server):
        with _connect(server) as sock:
            sock.sendall(HALF_SENT + b"Host: test\r\n\r\n")
            received = _read_until_closed(sock)
        assert received is not None
        assert received.startswith(b"HTTP/1.1 200 ")

    def test_healthz_answers_while_connections_stall(self, server):
        stalled = [_connect(server) for _ in range(50)]
        try:
            for sock in stalled:
                sock.sendall(HALF_SENT)
            assert _healthz(server) == 200
            assert all(_read_until_closed(sock) == b""
                       for sock in stalled)
            assert _healthz(server) == 200
        finally:
            for sock in stalled:
                sock.close()


class TestEarlyHangUp:
    def test_hang_up_before_the_response_leaves_stderr_clean(
            self, server, monkeypatch, capsys):
        handled = threading.Event()
        shutdown_request = server_module._QueryHTTPServer.shutdown_request

        def record_shutdown(self, request):
            shutdown_request(self, request)
            handled.set()

        monkeypatch.setattr(server_module._QueryHTTPServer,
                            "shutdown_request", record_shutdown)
        sock = _connect(server)
        # Linger 0: close() sends a reset, so the server's next write
        # or read on this connection fails.
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER,
                        struct.pack("ii", 1, 0))
        sock.sendall(b"GET /v1/query?metric=dpm HTTP/1.1\r\n"
                     b"Host: test\r\n\r\n")
        sock.close()
        assert handled.wait(CLOSE_WAIT_S)
        assert _healthz(server) == 200
        assert capsys.readouterr().err == ""


#: (raw request, status, envelope code) for requests ``http.server``
#: rejects before any route sees them.
MALFORMED = {
    "no-version": (b"GARBAGE\r\n\r\n", 400, "bad_request"),
    "http-9.9": (b"GET /v1/healthz HTTP/9.9\r\n\r\n", 505,
                 "http_version_not_supported"),
    "long-line": (b"GET /" + b"a" * 70_000 + b" HTTP/1.1\r\n\r\n", 414,
                  "request_line_too_long"),
    "many-headers": (b"GET /v1/healthz HTTP/1.1\r\n"
                     + b"".join(b"X-Filler-%d: x\r\n" % i
                                for i in range(120)) + b"\r\n",
                     431, "headers_too_large"),
    "put": (b"PUT /v1/query HTTP/1.1\r\nHost: test\r\n"
            b"Content-Length: 0\r\n\r\n", 501, "method_not_implemented"),
}


def _read_response(sock: socket.socket) -> bytes:
    """Everything the server sends before it closes ``sock``.  A reset
    after the answer (the server closes with part of an oversized
    request still unread) ends the read like a close."""
    received = b""
    try:
        while chunk := sock.recv(65536):
            received += chunk
    except ConnectionResetError:
        pass
    return received


class TestMalformedRequests:
    @pytest.mark.parametrize("name", sorted(MALFORMED))
    def test_answered_with_the_json_envelope(self, name, small_db):
        request, status, code = MALFORMED[name]
        registry = MetricsRegistry()
        with QueryServer(small_db, port=0, registry=registry) as server:
            with _connect(server) as sock:
                sock.sendall(request)
                raw = _read_response(sock)
            head, _, body = raw.partition(b"\r\n\r\n")
            lines = head.decode("latin-1").split("\r\n")
            assert lines[0].startswith(f"HTTP/1.1 {status} "), lines[0]
            headers = {k.lower(): v.strip() for k, _, v in
                       (line.partition(":") for line in lines[1:])}
            assert headers["content-type"] == "application/json"
            assert headers["connection"] == "close"
            assert int(headers["content-length"]) == len(body)
            error = json.loads(body)["error"]
            assert error["code"] == code
            assert error["message"]
            counted = registry.get(HTTP_REQUESTS).labels(
                "<unknown>", str(status)).value
            assert counted == 1
            assert _healthz(server) == 200
