"""Stdlib-only HTTP front end: the ``repro serve`` endpoints.

Four JSON endpoints over one :class:`~repro.service.EngineService`:

==========  ======  =====================================================
path        method  body / query parameters
==========  ======  =====================================================
/search     GET     ``q`` (keywords), optional ``k``, ``dmax``
/search     POST    ``{"q": "..."}`` or ``{"queries": [...]}`` (batch →
                    ``search_many`` under one snapshot), optional ``k``,
                    ``dmax``, ``timeout``
/execute    POST    ``{"q": "...", "rank": 1, "limit": 10}`` — search,
                    run the rank-th interpretation, return its answers;
                    ``limit`` is an integer >= 0 or ``null`` (unbounded)
/update     POST    ``{"add": "<N-Triples>", "remove": "<N-Triples>"}`` —
                    one atomic epoch through incremental maintenance
/stats      GET     service counters, latency percentiles, cache rates,
                    ``http: {connections, requests}``
==========  ======  =====================================================

Error mapping: bad input → 400, unknown path → 404, admission bound → 429
(backpressure), anything else → 500.

The server speaks HTTP/1.1: a connection is kept for the client's next
request and closed after :data:`IDLE_TIMEOUT_SECONDS` without one (or
with half of one).  The handler threads come from ``ThreadingHTTPServer``,
one per connection; concurrency control is entirely the service's — the
HTTP layer holds two counters and no other state of its own.

**Response path.**  A response body is ``json.dumps(payload)`` byte for
byte, joined from fragments each candidate encodes once; head and body
leave in one write.  The payload shapes and their encoders live in
:mod:`repro.service.encoding` — a worker process of the ``--workers N``
tier runs them without importing this module's HTTP stack — and are
re-exported here under the names they always had.
"""

from __future__ import annotations

import json
import threading
from http import HTTPStatus
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Dict, List, Optional, Tuple
from urllib.parse import parse_qs, urlparse

from repro.rdf.ntriples import parse_ntriples
from repro.service.encoding import (
    _dumps,
    _encode_outcome,
    answers_to_json,
    candidate_to_json,
    encode_execution,
    encode_result,
    result_to_json,
)
from repro.service.service import AdmissionError, EngineService

__all__ = [
    "IDLE_TIMEOUT_SECONDS",
    "ReproServer",
    "answers_to_json",
    "candidate_to_json",
    "encode_execution",
    "encode_result",
    "result_to_json",
]

#: How long a connection may stay silent — between two requests or in the
#: middle of one — before the server closes it and its thread exits.
IDLE_TIMEOUT_SECONDS = 30.0


def _error(message: str) -> bytes:
    return _dumps({"error": message})


# A JSON body's fields arrive with whatever type the client chose; each is
# checked here, before the service sees it, so a wrong one is the same
# 400 on both tiers instead of whatever exception its first use raises.

def _is_integer(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _query_field(body: Dict[str, object]):
    q = body["q"]
    if isinstance(q, str) or (
        isinstance(q, list) and all(isinstance(word, str) for word in q)
    ):
        return q
    raise ValueError(f"'q' must be a string or a list of strings, got {q!r}")


def _ntriples_field(body: Dict[str, object], name: str) -> list:
    text = body.get(name, "")
    if not isinstance(text, str):
        raise ValueError(f"{name!r} must be N-Triples text (a string), got {text!r}")
    return list(parse_ntriples(text))


# ----------------------------------------------------------------------
# Handler
# ----------------------------------------------------------------------

class _Handler(BaseHTTPRequestHandler):
    server_version = "repro-serve"
    protocol_version = "HTTP/1.1"
    timeout = IDLE_TIMEOUT_SECONDS
    # A response is one write (`_send`), and it must leave at once: on a
    # reused connection Nagle's algorithm would hold a segment back until
    # the client's delayed ACK of the one before.
    disable_nagle_algorithm = True

    @property
    def service(self) -> EngineService:
        return self.server.service

    def log_message(self, format, *args):  # noqa: A002 - stdlib signature
        if self.server.verbose:
            super().log_message(format, *args)

    def setup(self) -> None:
        super().setup()
        self.server.count("connections")

    # -- plumbing ------------------------------------------------------

    def _answer(self) -> None:
        self.server.count("requests")
        try:
            try:
                status, body = self._route()
            except AdmissionError as exc:
                status, body = 429, _error(str(exc))
            except (ValueError, KeyError) as exc:
                status, body = 400, _error(str(exc))
            except (ConnectionError, TimeoutError):
                raise
            except Exception as exc:  # pragma: no cover - defensive
                status, body = 500, _error(f"{type(exc).__name__}: {exc}")
            self._send(status, body)
        except (ConnectionError, TimeoutError):
            # The client went away (reset, closed pipe) or stalled past the
            # handler timeout, mid-request or mid-response: nobody is left
            # to answer, and the stream is in no state to be reused.
            self.close_connection = True

    do_GET = do_POST = _answer

    def _send(self, status: int, body: bytes) -> None:
        self.log_request(status, len(body))
        head = (
            f"HTTP/1.1 {status} {HTTPStatus(status).phrase}\r\n"
            f"Server: {self.version_string()}\r\n"
            f"Date: {self.date_time_string()}\r\n"
            "Content-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n"
            + ("Connection: close\r\n" if self.close_connection else "")
            + "\r\n"
        )
        self.wfile.write(head.encode("latin-1") + body)

    def _read_body(self) -> bytes:
        """Consume the request body, whatever becomes of the request: the
        next one on this connection must start at a request line.  With a
        length that cannot be trusted there is no finding that line, so
        the connection closes after the 400."""
        announced = self.headers.get("Content-Length")
        try:
            length = 0 if announced is None else int(announced)
            if length < 0 or "Transfer-Encoding" in self.headers:
                raise ValueError
        except ValueError:
            self.close_connection = True
            raise ValueError(
                f"request body needs a valid Content-Length, got {announced!r}"
            ) from None
        return self.rfile.read(length) if length else b""

    # -- routes --------------------------------------------------------

    def _route(self) -> Tuple[int, bytes]:
        raw = self._read_body()
        url = urlparse(self.path)
        if self.command == "GET":
            if url.path == "/search":
                return self._get_search(parse_qs(url.query))
            if url.path == "/stats":
                return 200, _dumps(
                    dict(self.service.stats(), http=self.server.http_stats())
                )
        else:
            handler = {
                "/search": self._post_search,
                "/execute": self._post_execute,
                "/update": self._post_update,
            }.get(url.path)
            if handler is not None:
                payload = json.loads(raw.decode("utf-8")) if raw else {}
                if not isinstance(payload, dict):
                    raise ValueError("request body must be a JSON object")
                return handler(payload)
        return 404, _error(f"unknown path {url.path!r}")

    def _get_search(self, params: Dict[str, List[str]]) -> Tuple[int, bytes]:
        if "q" not in params:
            raise ValueError("missing query parameter 'q'")
        k = int(params["k"][0]) if "k" in params else None
        dmax = int(params["dmax"][0]) if "dmax" in params else None
        result = self.service.search(params["q"][0], k=k, dmax=dmax)
        return 200, encode_result(result)

    def _post_search(self, body: Dict[str, object]) -> Tuple[int, bytes]:
        # Coerce numeric knobs up front: a malformed value is the client's
        # mistake (400), not a server bug (500).
        k = int(body["k"]) if body.get("k") is not None else None
        dmax = int(body["dmax"]) if body.get("dmax") is not None else None
        timeout = float(body["timeout"]) if body.get("timeout") is not None else None
        if "queries" in body:
            queries = body["queries"]
            if not isinstance(queries, list):
                raise ValueError("'queries' must be a list")
            outcomes = self.service.search_many(
                queries, k=k, dmax=dmax, timeout=timeout
            )
            return 200, b"".join((
                b'{"outcomes": [',
                b", ".join([_encode_outcome(o) for o in outcomes]),
                b"]}",
            ))
        if "q" not in body:
            raise ValueError("provide 'q' (one query) or 'queries' (a batch)")
        result = self.service.search(_query_field(body), k=k, dmax=dmax)
        return 200, encode_result(result)

    def _post_execute(self, body: Dict[str, object]) -> Tuple[int, bytes]:
        if "q" not in body:
            raise ValueError("missing 'q'")
        limit = body.get("limit", 10)
        if limit is not None and (not _is_integer(limit) or limit < 0):
            raise ValueError(
                f"'limit' must be null (unbounded) or an integer >= 0, got {limit!r}"
            )
        rank = body.get("rank", 1)
        if not _is_integer(rank):
            raise ValueError(f"'rank' must be an integer, got {rank!r}")
        candidate, answers, timings = self.service.execute_ranked(
            _query_field(body), rank=rank, limit=limit
        )
        if candidate is None:
            return 404, _error("no interpretation at that rank")
        return 200, encode_execution(candidate, answers, timings)

    def _post_update(self, body: Dict[str, object]) -> Tuple[int, bytes]:
        adds = _ntriples_field(body, "add")
        removes = _ntriples_field(body, "remove")
        if not adds and not removes:
            raise ValueError("provide 'add' and/or 'remove' as N-Triples text")
        return 200, _dumps(self.service.update(adds=adds, removes=removes))


# ----------------------------------------------------------------------
# Server
# ----------------------------------------------------------------------

class _HTTPServer(ThreadingHTTPServer):
    """The listening socket plus what every handler thread shares: the
    service and the two counters ``/stats`` reports as ``http``."""

    def __init__(self, address, service: EngineService, verbose: bool):
        super().__init__(address, _Handler)
        self.service = service
        self.verbose = verbose
        self._counts_lock = threading.Lock()
        self._counts = {"connections": 0, "requests": 0}

    def count(self, what: str) -> None:
        with self._counts_lock:
            self._counts[what] += 1

    def http_stats(self) -> Dict[str, int]:
        """``requests / connections`` is the reuse ratio: 1 means every
        request paid a TCP connect and a thread spawn."""
        with self._counts_lock:
            return dict(self._counts)


class ReproServer:
    """A threading HTTP server bound to one :class:`EngineService`.

    ``port=0`` binds an ephemeral port (read it back via :attr:`port`) —
    the shape the integration tests and embedded uses want.  ``start()``
    serves from a daemon thread; ``serve_forever()`` serves inline (the
    CLI path).
    """

    def __init__(
        self,
        service: EngineService,
        host: str = "127.0.0.1",
        port: int = 0,
        verbose: bool = False,
    ):
        self._httpd = _HTTPServer((host, port), service, verbose)
        self._thread: Optional[threading.Thread] = None

    @property
    def host(self) -> str:
        return self._httpd.server_address[0]

    @property
    def port(self) -> int:
        return self._httpd.server_address[1]

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def start(self) -> "ReproServer":
        self._thread = threading.Thread(
            target=self._httpd.serve_forever, name="repro-serve", daemon=True
        )
        self._thread.start()
        return self

    def serve_forever(self) -> None:
        self._httpd.serve_forever()

    def close(self) -> None:
        self._httpd.shutdown()
        self._httpd.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5)
            self._thread = None

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()
