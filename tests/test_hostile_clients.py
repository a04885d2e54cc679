"""Broken and hostile HTTP clients against the query server.

A client that never finishes sending its request, one that leaves a
keep-alive connection idle, and one that hangs up before its response
is written must cost the server nothing lasting: the handler closes a
stalled connection after its timeout, ``/v1/healthz`` keeps answering,
and stderr stays clean.
"""

from __future__ import annotations

import socket
import struct
import threading
import urllib.request

import pytest

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
