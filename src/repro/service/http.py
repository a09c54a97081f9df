"""HTTP/1.1 front end: the ``repro serve`` endpoints.

Four JSON endpoints over one :class:`~repro.service.EngineService`:

==========  ======  =====================================================
path        method  body / query parameters
==========  ======  =====================================================
/search     GET     ``q`` (keywords), optional ``k``, ``dmax``
/search     POST    ``{"q": "..."}`` or ``{"queries": [...]}`` (batch →
                    ``search_many`` under one snapshot), optional ``k``,
                    ``dmax``, ``timeout`` (the batch's deadline, seconds
                    from arrival: a finite number > 0, or ``null`` for
                    the server's)
/execute    POST    ``{"q": "...", "rank": 1, "limit": 10}`` — search,
                    run the rank-th interpretation, return its answers;
                    ``limit`` is an integer >= 0 or ``null`` (unbounded)
/update     POST    ``{"add": "<N-Triples>", "remove": "<N-Triples>"}`` —
                    one atomic epoch through incremental maintenance
/stats      GET     service counters, latency percentiles, cache rates,
                    ``http: {connections, requests}``
==========  ======  =====================================================

Error mapping: bad input → 400, unknown path → 404, admission bound → 429
(backpressure), deadline passed before the work could start → 504,
anything else → 500.

**Requests.**  Each request is one :class:`~repro.service.protocol.Request`,
minted when its head's first byte arrives: an id, that arrival time and
a deadline ``timeout`` seconds later (``ReproServer(timeout=)``, ``repro
serve --timeout``; none by default).  ``/search`` and ``/execute`` hand
it to the service on either tier; ``/update`` and ``/stats`` take no
deadline.  Every response — errors and refusals included — names it in
``X-Request-Id``, and so does the ``--verbose`` access line.

The HTTP/1.1 layer is this module's own, on ``socketserver``: a daemon
thread per connection, kept for the client's next request and closed
after :data:`IDLE_TIMEOUT_SECONDS` without one — or when a request has
not arrived whole that long after its first byte.  A head that breaks a
rule (``docs/architecture.md``, "Request head rules") is a JSON 400 /
413 / 414 / 431 / 501 / 505 and a close.  Concurrency control is the
service's; the HTTP layer holds two counters and no other state.

**Response path.**  A response body is ``json.dumps(payload)`` byte for
byte, joined from fragments each candidate encodes once; head and body
leave in one write.  The payload shapes and their encoders live in
:mod:`repro.service.encoding` — a worker process of the ``--workers N``
tier runs them without importing this module — and are re-exported here
under the names they always had.
"""

from __future__ import annotations

import json
import math
import re
import socketserver
import sys
import threading
import time
from http import HTTPStatus
from typing import Dict, List, Optional, Tuple
from urllib.parse import parse_qs, urlparse

from repro.rdf.ntriples import NTriplesParseError, parse_ntriples
from repro.service.encoding import (
    _dumps,
    _encode_outcome,
    answers_to_json,
    candidate_to_json,
    encode_execution,
    encode_result,
    result_to_json,
)
from repro.service.protocol import MAX_FRAME_BYTES, DeadlineExceeded, Request
from repro.service.service import AdmissionError, EngineService
from repro.util import Counters, now

__all__ = [
    "IDLE_TIMEOUT_SECONDS",
    "ReproServer",
    "answers_to_json",
    "candidate_to_json",
    "encode_execution",
    "encode_result",
    "result_to_json",
]

#: How long a connection may stay silent between two requests — and how
#: long one request may take to arrive, from its first byte — before the
#: server closes it and its thread exits.
IDLE_TIMEOUT_SECONDS = 30.0

_MAX_LINE = 65536  # bytes of a request or header line, terminator included
_MAX_HEADERS = 100
_RECV_BYTES = 65536
_TOKEN = re.compile(r"[!#$%&'*+.^_`|~0-9A-Za-z-]+")
_VERSION = re.compile(r"HTTP/([0-9]{1,10})\.([0-9]{1,10})")
_HEAD_END = re.compile(rb"\r?\n\r?\n")
_STATUS_LINES = {  # what a response head starts with, per status
    status: f"HTTP/1.1 {status} {HTTPStatus(status).phrase}\r\n"
    f"Server: repro-serve Python/{sys.version.split()[0]}\r\n".encode("latin-1")
    for status in (200, 400, 404, 413, 414, 429, 431, 500, 501, 504, 505)
}
_DAYS = "Mon Tue Wed Thu Fri Sat Sun".split()
_MONTHS = " Jan Feb Mar Apr May Jun Jul Aug Sep Oct Nov Dec".split(" ")
# What a --verbose log line must not carry raw: a client's control bytes.
_CONTROL_CHARS = {c: f"\\x{c:02x}" for c in (*range(0x20), *range(0x7F, 0xA0))}

_date_line = (0, b"")


def _date() -> bytes:
    """The ``Date`` header line (RFC 9110 IMF-fixdate), formatted once per
    second; two threads that format the same second write equal bytes."""
    global _date_line
    second = int(time.time())
    if _date_line[0] != second:
        t = time.gmtime(second)  # %a and %b would follow the locale
        date = time.strftime(f"%d {_MONTHS[t.tm_mon]} %Y %H:%M:%S", t)
        _date_line = (second, f"Date: {_DAYS[t.tm_wday]}, {date} GMT\r\n".encode())
    return _date_line[1]


def _error(message: str) -> bytes:
    return _dumps({"error": message})


class _Refused(Exception):
    """``(status, message)``: a request answered with an error and then the
    connection closed, since where the next request starts is unknown."""


# A JSON body's fields arrive with whatever type the client chose; each is
# checked here, before the service sees it, so a wrong one is the same
# 400 on both tiers instead of whatever exception its first use raises.

def _is_integer(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _optional_integer_field(body: Dict[str, object], name: str):
    value = body.get(name)
    if value is not None and not _is_integer(value):
        raise ValueError(f"{name!r} must be an integer or null, got {value!r}")
    return value


def _timeout_field(body: Dict[str, object]) -> Optional[float]:
    """A batch deadline in seconds: a finite JSON number > 0, or null for
    none.  What ``float()`` would also take — ``"nan"``, ``"inf"``, a
    JSON ``NaN``, ``true`` — is refused, as is a deadline already past."""
    value = body.get("timeout")
    if value is None:
        return None
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        try:
            seconds = float(value)
        except OverflowError:  # an integer no float holds
            seconds = math.inf
        if math.isfinite(seconds) and seconds > 0:
            return seconds
    raise ValueError(
        f"'timeout' must be null or a finite number of seconds > 0, got {value!r}"
    )


#: A query-string integer: ASCII digits, optionally negative — what
#: int() would also take (``1_0``, ``+3``, `` 7``, non-ASCII digits) is
#: refused, as a JSON body's non-integer is.
_INTEGER_PARAM = re.compile(r"-?[0-9]+")


def _optional_integer_param(params: Dict[str, List[str]], name: str):
    if name not in params:
        return None
    value = params[name][0]
    if not _INTEGER_PARAM.fullmatch(value):
        raise ValueError(f"{name!r} must be an integer, got {value!r}")
    return int(value)


def _query(q, name: str):
    if isinstance(q, str) or (
        isinstance(q, list) and all(isinstance(word, str) for word in q)
    ):
        return q
    raise ValueError(f"{name!r} must be a string or a list of strings, got {q!r}")


def _ntriples_field(body: Dict[str, object], name: str) -> list:
    text = body.get(name, "")
    if not isinstance(text, str):
        raise ValueError(f"{name!r} must be N-Triples text (a string), got {text!r}")
    try:
        return list(parse_ntriples(text))
    except NTriplesParseError as exc:
        raise ValueError(f"{name!r}: {exc}") from None


# ----------------------------------------------------------------------
# Handler
# ----------------------------------------------------------------------

class _Handler(socketserver.StreamRequestHandler):
    timeout = IDLE_TIMEOUT_SECONDS
    # A response is one write (`_send`), and it must leave at once: on a
    # reused connection Nagle's algorithm would hold a segment back until
    # the client's delayed ACK of the one before.
    disable_nagle_algorithm = True

    # Per connection: what arrived past the end of the last request (the
    # start of a pipelined one), and whether the socket's timeout is what
    # was left of a request's deadline rather than `timeout`.
    _pending = b""
    _deadline_armed = False

    @property
    def service(self) -> EngineService:
        return self.server.service

    def setup(self) -> None:
        super().setup()
        self.server.counts.add("connections")

    def handle(self) -> None:
        self.handle_one_request()
        while not self.close_connection:
            self.handle_one_request()

    # -- plumbing ------------------------------------------------------

    def handle_one_request(self) -> None:
        """Read and answer one request; ``close_connection`` then says
        whether the connection carries another."""
        self.close_connection = True
        try:
            try:
                if not self._read_head():
                    return
                self.server.counts.add("requests")
                status, body = self._route()
            except _Refused as exc:
                self.close_connection = True
                status, body = exc.args[0], _error(exc.args[1])
            except AdmissionError as exc:
                status, body = 429, _error(str(exc))
            except DeadlineExceeded as exc:
                status, body = 504, _error(str(exc))
            except (ValueError, KeyError) as exc:
                status, body = 400, _error(str(exc))
            except (ConnectionError, TimeoutError):
                raise
            except Exception as exc:  # pragma: no cover - defensive
                status, body = 500, _error(f"{type(exc).__name__}: {exc}")
            self._send(status, body)
        except (ConnectionError, TimeoutError):
            # The client went away (reset, closed pipe) or stalled past the
            # idle timeout or its request's deadline, mid-request or
            # mid-response: nobody is left to answer, and the stream is in
            # no state to be reused.
            self.close_connection = True

    def _recv(self) -> bytes:
        """More of the request in progress, if it comes before the
        request's deadline: a client that trickles is cut off there."""
        remaining = self._deadline - now()
        if remaining <= 0:
            raise TimeoutError("request not complete by its deadline")
        self.connection.settimeout(remaining)
        self._deadline_armed = True
        data = self.rfile.read1(_RECV_BYTES)
        if not data:
            raise ConnectionError("connection closed mid-request")
        return data

    def _read_head(self) -> bool:
        """Parse the next request head into ``command``, ``path`` and
        ``headers`` (names lower-cased); False when the client closed the
        connection, or sent an empty request line, instead.  The head is
        read up to its blank line, limits checked as it grows, then split
        into lines once."""
        self.requestline = ""
        if self._deadline_armed:
            self.connection.settimeout(self.timeout)
            self._deadline_armed = False
        data = self._pending or self.rfile.read1(_RECV_BYTES)  # the idle wait
        if not data:
            return False
        self.request_value = Request.new(self.server.request_timeout)
        self._deadline = self.request_value.arrived + self.timeout
        while not (blank := _HEAD_END.search(data)):
            if (len(data) - data.rfind(b"\n") > _MAX_LINE
                    or data.count(b"\n") > _MAX_HEADERS + 1):
                break  # past a limit already: refused below
            data += self._recv()
        end, rest = (blank.start(), blank.end()) if blank else (len(data),) * 2
        self._pending = data[rest:]
        lines = data[:end].decode("latin-1").split("\n")
        if len(lines) > _MAX_HEADERS + 1:
            raise _Refused(431, f"more than {_MAX_HEADERS} header lines")
        if len(lines[0]) >= _MAX_LINE:
            raise _Refused(414, f"request line longer than {_MAX_LINE} bytes")

        self.requestline = lines[0].rstrip("\r")
        words = self.requestline.split()
        if not words:
            return False
        if len(words) != 3:
            raise _Refused(400, f"bad request line {self.requestline!r}")
        self.command, path, version_text = words
        version = _VERSION.fullmatch(version_text)
        if version is None:
            raise _Refused(400, f"bad request version {version_text!r}")
        version = (int(version[1]), int(version[2]))
        if version >= (2, 0):
            raise _Refused(505, f"{version_text} is not supported")

        headers: Dict[str, str] = {}
        for line in lines[1:]:
            if len(line) >= _MAX_LINE:
                raise _Refused(431, f"header line longer than {_MAX_LINE} bytes")
            name, colon, value = line.partition(":")
            # No colon, whitespace before it, or a continuation line (a
            # name that starts with whitespace): RFC 9112 5.1 / 5.2.
            if not colon or not _TOKEN.fullmatch(name):
                raise _Refused(400, "malformed header line %r" % line.rstrip("\r"))
            name, value = name.lower(), value.strip(" \t\r")
            if headers.setdefault(name, value) != value and name == "content-length":
                raise _Refused(400, "two different Content-Length values")
        connection = headers.get("connection", "").lower()
        self.close_connection = connection == "close" or (
            version < (1, 1) and connection != "keep-alive"
        )
        self._expects_continue = version >= (1, 1) and (
            headers.get("expect", "").lower() == "100-continue")
        if self.command not in ("GET", "POST"):
            raise _Refused(501, f"unsupported method {self.command!r}")
        # "//host/stats" is a path here, not a netloc for `urlparse` to strip.
        self.path = "/" + path.lstrip("/") if path.startswith("//") else path
        self.headers = headers
        return True

    def _read_body(self) -> bytes:
        """Consume the request body, whatever becomes of the request: the
        next one on this connection must start at a request line.  With a
        length that cannot be trusted there is no finding that line, and
        a length above the frame bound is refused unread: the connection
        closes after the 400 / 413."""
        announced = self.headers.get("content-length", "0")
        if "transfer-encoding" in self.headers or not announced.isdecimal():
            raise _Refused(400, f"request body needs a valid Content-Length, "
                                f"got {announced!r}")
        length = int(announced)
        if length > MAX_FRAME_BYTES:
            raise _Refused(
                413, f"request body of {length} bytes exceeds {MAX_FRAME_BYTES}"
            )
        chunks, missing = [self._pending], length - len(self._pending)
        if missing > 0 and self._expects_continue:
            self.wfile.write(b"HTTP/1.1 100 Continue\r\n\r\n")
        while missing > 0:
            chunks.append(self._recv())
            missing -= len(chunks[-1])
        data = b"".join(chunks)
        self._pending = data[length:]
        return data[:length]

    def _send(self, status: int, body: bytes) -> None:
        if self.server.verbose:
            self._log(status, len(body))
        self.wfile.write(b"".join((
            _STATUS_LINES[status],
            _date(),
            b"Content-Type: application/json\r\nContent-Length: %d\r\n"
            b"X-Request-Id: %s\r\n" % (len(body), self.request_value.id.encode()),
            b"Connection: close\r\n\r\n" if self.close_connection else b"\r\n",
            body,
        )))

    def _log(self, status: int, size: int) -> None:
        """A ``--verbose`` line per response, in the Common Log Format and
        then the request's id."""
        t = time.localtime()
        when = time.strftime(f"%d/{_MONTHS[t.tm_mon]}/%Y %H:%M:%S", t)
        message = f'"{self.requestline}" {status} {size} {self.request_value.id}'
        message = message.translate(_CONTROL_CHARS)
        sys.stderr.write(f"{self.client_address[0]} - - [{when}] {message}\n")

    # -- routes --------------------------------------------------------

    def _route(self) -> Tuple[int, bytes]:
        raw = self._read_body()
        url = urlparse(self.path)
        if self.command == "GET":
            if url.path == "/search":
                return self._get_search(parse_qs(url.query))
            if url.path == "/stats":
                return 200, _dumps(
                    dict(self.service.stats(), http=self.server.counts.snapshot())
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
        k = _optional_integer_param(params, "k")
        dmax = _optional_integer_param(params, "dmax")
        result = self.service.search(
            params["q"][0], k=k, dmax=dmax, request=self.request_value
        )
        return 200, encode_result(result)

    def _post_search(self, body: Dict[str, object]) -> Tuple[int, bytes]:
        k = _optional_integer_field(body, "k")
        dmax = _optional_integer_field(body, "dmax")
        timeout = _timeout_field(body)
        request = self.request_value
        if "queries" in body:
            queries = body["queries"]
            if not isinstance(queries, list):
                raise ValueError("'queries' must be a list")
            queries = [_query(q, f"queries[{i}]") for i, q in enumerate(queries)]
            if timeout is not None:
                request = request.with_timeout(timeout)
            outcomes = self.service.search_many(
                queries, k=k, dmax=dmax, request=request
            )
            return 200, b"".join((
                b'{"outcomes": [',
                b", ".join([_encode_outcome(o) for o in outcomes]),
                b"]}",
            ))
        if "q" not in body:
            raise ValueError("provide 'q' (one query) or 'queries' (a batch)")
        result = self.service.search(
            _query(body["q"], "q"), k=k, dmax=dmax, request=request
        )
        return 200, encode_result(result)

    def _post_execute(self, body: Dict[str, object]) -> Tuple[int, bytes]:
        if "q" not in body:
            raise ValueError("missing 'q'")
        limit = body.get("limit", 10)
        if limit is not None and not (_is_integer(limit) and 0 <= limit <= sys.maxsize):
            raise ValueError(f"'limit' must be null (unbounded) or an integer from 0 "
                             f"to {sys.maxsize}, got {limit!r}")
        rank = body.get("rank", 1)
        if not _is_integer(rank):
            raise ValueError(f"'rank' must be an integer, got {rank!r}")
        candidate, answers, timings = self.service.execute_ranked(
            _query(body["q"], "q"), rank=rank, limit=limit, request=self.request_value
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

class _HTTPServer(socketserver.ThreadingTCPServer):
    """The listening socket plus what every handler thread shares: the
    service, the request deadline and the two counters ``/stats``
    reports as ``http``."""

    allow_reuse_address = True
    daemon_threads = True

    def __init__(
        self,
        address,
        service: EngineService,
        verbose: bool,
        request_timeout: Optional[float],
    ):
        super().__init__(address, _Handler)
        self.service = service
        self.verbose = verbose
        self.request_timeout = request_timeout
        #: ``requests / connections`` is the reuse ratio: 1 means every
        #: request paid a TCP connect and a thread spawn.
        self.counts = Counters("connections", "requests")


class ReproServer:
    """A threading HTTP server bound to one :class:`EngineService` or
    :class:`~repro.service.DispatchService`.

    ``port=0`` binds an ephemeral port (read it back via :attr:`port`) —
    the shape the integration tests and embedded uses want.  ``timeout``
    is each ``/search`` and ``/execute`` request's deadline, seconds
    from its arrival (``None``: none), on either tier.  ``start()``
    serves from a daemon thread; ``serve_forever()`` serves inline (the
    CLI path).
    """

    def __init__(
        self,
        service: EngineService,
        host: str = "127.0.0.1",
        port: int = 0,
        verbose: bool = False,
        timeout: Optional[float] = None,
    ):
        self._httpd = _HTTPServer((host, port), service, verbose, timeout)
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
