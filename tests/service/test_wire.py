"""HTTP framing: one write per message, vanished peers counted."""

import json
import re
import socket
import threading

import pytest

from repro import obs
from repro.service import (
    AvailabilityServer,
    RetryPolicy,
    ServiceClient,
    ServiceConfig,
)
from repro.service.cluster import _RouterHandler, _ThreadingRouter
from repro.service.server import _Handler
from repro.service.wire import MessageHandler, ThreadingServer


def split_message(data):
    """``(head, body)`` of one complete HTTP message, else AssertionError."""
    head, separator, body = data.partition(b"\r\n\r\n")
    assert separator, f"no end of headers in {data[:200]!r}"
    length = int(re.search(rb"(?i)content-length: (\d+)", head).group(1))
    assert len(body) == length, (len(body), length)
    return head, body


class RecordingFile:
    """A ``wfile`` that keeps every write, or raises ``error`` on it."""

    def __init__(self, error=None):
        self.error = error
        self.writes = []

    def write(self, data):
        if self.error is not None:
            raise self.error
        self.writes.append(bytes(data))
        return len(data)

    def flush(self):
        pass


def bare_handler(cls, wfile):
    """A handler object mid-request, with no socket behind it."""
    handler = cls.__new__(cls)
    handler.wfile = wfile
    handler.request_version = "HTTP/1.1"
    handler.requestline = "POST /v1/solve HTTP/1.1"
    handler.command = "POST"
    handler.path = "/v1/solve"
    handler.client_address = ("127.0.0.1", 0)
    handler.close_connection = False
    return handler


class TestOneWritePerMessage:
    @pytest.mark.parametrize("cls", [_Handler, _RouterHandler])
    def test_json_response_is_one_write(self, cls):
        wfile = RecordingFile()
        handler = bare_handler(cls, wfile)
        handler.send_json(429, {"error": "busy"}, {"Retry-After": "3"})
        assert len(wfile.writes) == 1
        head, body = split_message(wfile.writes[0])
        assert head.startswith(b"HTTP/1.1 429 ")
        assert b"\r\nRetry-After: 3" in head
        assert b"\r\nContent-Type: application/json" in head
        assert json.loads(body) == {"error": "busy"}

    def test_large_body_is_still_one_write(self):
        wfile = RecordingFile()
        body = b"x" * (256 * 1024)
        bare_handler(MessageHandler, wfile).send_body(
            200, body, "text/plain"
        )
        assert len(wfile.writes) == 1
        assert split_message(wfile.writes[0])[1] == body


class TestVanishedPeers:
    @pytest.mark.parametrize(
        "cls, counter",
        [
            (_Handler, "service_responses_orphaned_total"),
            (_RouterHandler, "cluster_responses_orphaned_total"),
        ],
    )
    @pytest.mark.parametrize("error", [BrokenPipeError, ConnectionResetError])
    def test_orphaned_response_counted_and_connection_closed(
        self, cls, counter, error
    ):
        handler = bare_handler(cls, RecordingFile(error("peer gone")))
        with obs.observe():
            handler.send_json(200, {"availability": 0.99})
            assert obs.counter(counter).value == 1
        assert handler.close_connection is True

    @pytest.mark.parametrize(
        "cls, counter",
        [
            (ThreadingServer, "service_connections_reset_total"),
            (_ThreadingRouter, "cluster_connections_reset_total"),
        ],
    )
    def test_reset_connection_counted_not_printed(
        self, cls, counter, capsys
    ):
        server = cls(("127.0.0.1", 0), MessageHandler)
        try:
            with obs.observe():
                try:
                    raise ConnectionResetError("peer reset")
                except ConnectionResetError:
                    server.handle_error(None, ("127.0.0.1", 0))
                assert obs.counter(counter).value == 1
        finally:
            server.server_close()
        assert capsys.readouterr().err == ""


class TestOneSegmentOnTheWire:
    def test_client_post_arrives_in_one_recv(self):
        """Request line, headers and body leave the client in one send,
        so the first ``recv`` on the server side holds all of them."""
        listener = socket.create_server(("127.0.0.1", 0))
        received = []

        def serve():
            conn, _ = listener.accept()
            with conn:
                received.append(conn.recv(1 << 16))
                conn.sendall(
                    b"HTTP/1.1 200 OK\r\nContent-Type: application/json"
                    b"\r\nContent-Length: 2\r\n\r\n{}"
                )

        thread = threading.Thread(target=serve, daemon=True)
        thread.start()
        port = listener.getsockname()[1]
        try:
            with ServiceClient(
                f"http://127.0.0.1:{port}",
                timeout=10.0,
                retry=RetryPolicy(max_attempts=1),
            ) as client:
                assert client.solve(n_instances=3) == {}
        finally:
            thread.join(timeout=10.0)
            listener.close()
        head, body = split_message(received[0])
        assert head.startswith(b"POST /v1/solve HTTP/1.1\r\n")
        assert b"\r\nIdempotency-Key: " in head
        assert json.loads(body)["n_instances"] == 3

    def test_shard_reply_arrives_in_one_recv(self):
        with AvailabilityServer(ServiceConfig(port=0)) as server:
            body = json.dumps({"n_instances": 2, "n_pairs": 2}).encode()
            with socket.create_connection(server.address, timeout=30) as sock:
                sock.sendall(
                    b"POST /v1/solve HTTP/1.1\r\nHost: shard\r\n"
                    b"Content-Type: application/json\r\n"
                    b"Content-Length: %d\r\n\r\n%s" % (len(body), body)
                )
                head, payload = split_message(sock.recv(1 << 20))
        assert head.startswith(b"HTTP/1.1 200 ")
        assert 0.0 < json.loads(payload)["availability"] < 1.0
