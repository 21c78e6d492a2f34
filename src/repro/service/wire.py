"""HTTP plumbing shared by the shard server and the cluster router.

Both speak keep-alive HTTP/1.1 on stdlib :mod:`http.server`, and both
need the same three things from it:

* **one write per response.**  The status line, headers and body go out
  in a single ``sendall``, so a keep-alive peer wakes once per message
  instead of once for the headers and again for the body;
* **bounded request bodies.**  An oversized body is drained in chunks
  and answered 413 (see :meth:`MessageHandler.read_body`);
* **vanished peers are counted, not printed.**  A response written to a
  socket the client already abandoned bumps the handler's
  ``orphaned_counter``; a connection reset while the handler waits for
  the next request bumps the server's ``reset_counter`` instead of
  letting :mod:`socketserver` print a traceback per connection.
"""

from __future__ import annotations

import json
import sys
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Dict, Mapping, Optional

from repro import obs
from repro.service.errors import BadRequest


def parse_body(raw: bytes) -> Any:
    """The JSON document in a request body (``{}`` when it is empty).

    Raises:
        BadRequest: The body is not UTF-8 JSON.
    """
    try:
        return json.loads(raw.decode("utf-8")) if raw else {}
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise BadRequest(f"invalid JSON body: {exc}") from exc


def require_object(document: Any) -> Dict[str, Any]:
    """``document`` itself when it is a JSON object, else BadRequest."""
    if not isinstance(document, dict):
        raise BadRequest(
            f"request body must be a JSON object, got "
            f"{type(document).__name__}"
        )
    return document


class MessageHandler(BaseHTTPRequestHandler):
    """Request handler whose every response is a single write."""

    protocol_version = "HTTP/1.1"
    # A keep-alive exchange must not wait out the peer's delayed ACK:
    # with Nagle on, a response longer than one segment holds back its
    # last, partial segment until the peer acknowledges (~40 ms).
    disable_nagle_algorithm = True
    #: Counter bumped when a response finds the client gone.
    orphaned_counter = "service_responses_orphaned_total"

    def send_body(
        self,
        status: int,
        body: bytes,
        content_type: str,
        headers: Optional[Mapping[str, str]] = None,
    ) -> None:
        """Write status line, headers and ``body`` in one ``sendall``."""
        try:
            self.send_response(status)
            self.send_header("Content-Type", content_type)
            self.send_header("Content-Length", str(len(body)))
            for name, value in (headers or {}).items():
                self.send_header(name, value)
            # end_headers() would write the header block on its own;
            # queueing the blank line and the body behind it makes
            # flush_headers() send the whole message at once.
            self._headers_buffer.extend((b"\r\n", body))
            self.flush_headers()
        except (BrokenPipeError, ConnectionResetError):
            # The client abandoned the socket — typically a deadline
            # timeout on a request that was still queued (the batcher
            # cannot cancel it, so the orphan was processed anyway).
            # Nobody is listening; drop the response without letting
            # socketserver splat a traceback per zombie request.
            obs.counter(self.orphaned_counter).inc()
            self.close_connection = True

    def send_json(
        self,
        status: int,
        payload: Mapping[str, Any],
        headers: Optional[Mapping[str, str]] = None,
    ) -> None:
        body = json.dumps(payload, sort_keys=True).encode("utf-8")
        self.send_body(status, body, "application/json", headers)

    def read_body(self, max_bytes: int) -> Optional[bytes]:
        """The raw request body, or ``None`` once a 413 has been sent.

        An oversized body is drained in bounded chunks before the 413:
        answering mid-upload makes the client see a reset instead, and
        leaving bytes unread would poison connection reuse.
        """
        length = int(self.headers.get("Content-Length") or 0)
        if length > max_bytes:
            remaining = length
            while remaining > 0:
                chunk = self.rfile.read(min(remaining, 65536))
                if not chunk:
                    break
                remaining -= len(chunk)
            self.send_json(
                413, {"error": f"request body exceeds {max_bytes} bytes"}
            )
            return None
        return self.rfile.read(length) if length else b""


class ThreadingServer(ThreadingHTTPServer):
    """Thread-per-connection server that counts abandoned connections."""

    daemon_threads = True
    # The default listen backlog (5) drops connections under bursts of
    # short-lived clients; load shedding belongs to the work queue, not
    # the accept queue.
    request_queue_size = 128
    #: Counter bumped when a client resets its connection.
    reset_counter = "service_connections_reset_total"

    def handle_error(self, request: Any, client_address: Any) -> None:
        # A client that hit its deadline tears the socket down while the
        # handler thread is still parked in readline(); stdlib
        # socketserver would print a full traceback per abandoned
        # keep-alive connection.  Count it instead — under deliberate
        # overload (chaos campaigns) these arrive by the hundreds.
        exc = sys.exc_info()[1]
        if isinstance(exc, (BrokenPipeError, ConnectionResetError)):
            obs.counter(self.reset_counter).inc()
            return
        super().handle_error(request, client_address)
