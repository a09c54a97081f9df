"""End-to-end test of the `repro serve` HTTP front end.

Spins the stdlib server on an ephemeral port over the running example and
exercises /search (GET + batched POST), /execute, /update, /stats as a
real HTTP client would — and, over raw sockets, as clients that reuse,
stall, desynchronise or reset a connection would.
"""

import http.client
import io
import json
import socket
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.service import http as http_module

from repro.core.engine import KeywordSearchEngine
from repro.rdf.graph import DataGraph
from repro.rdf.ntriples import serialize_ntriples
from repro.service import EngineService, ReproServer


@pytest.fixture()
def server(example_graph):
    engine = KeywordSearchEngine(
        DataGraph(example_graph.triples), k=5, search_cache_size=16
    )
    service = EngineService(engine)
    with ReproServer(service, port=0).start() as srv:
        yield srv
    service.close()


def _get(url):
    with urllib.request.urlopen(url, timeout=10) as resp:
        return resp.status, json.loads(resp.read().decode("utf-8"))


def _post(url, payload):
    request = urllib.request.Request(
        url,
        data=json.dumps(payload).encode("utf-8"),
        headers={"Content-Type": "application/json"},
        method="POST",
    )
    with urllib.request.urlopen(request, timeout=10) as resp:
        return resp.status, json.loads(resp.read().decode("utf-8"))


def test_search_endpoint(server):
    status, body = _get(f"{server.url}/search?q=cimiano+2006&k=3")
    assert status == 200
    assert body["keywords"] == ["cimiano", "2006"]
    assert body["candidates"], "the running example must yield interpretations"
    top = body["candidates"][0]
    assert top["rank"] == 1
    assert "SELECT" in top["sparql"]
    assert "total" in body["timings_ms"]


def test_batch_search_endpoint(server):
    status, body = _post(
        f"{server.url}/search", {"queries": ["cimiano 2006", "aifb"], "k": 3}
    )
    assert status == 200
    outcomes = body["outcomes"]
    assert [o["status"] for o in outcomes] == ["ok", "ok"]
    assert outcomes[0]["result"]["keywords"] == ["cimiano", "2006"]


def test_execute_endpoint(server):
    status, body = _post(
        f"{server.url}/execute", {"q": "2006 cimiano aifb", "rank": 1, "limit": 5}
    )
    assert status == 200
    assert body["candidate"]["rank"] == 1
    assert isinstance(body["answers"], list)
    assert body["answers"], "the top interpretation has answers in the example"


def test_update_then_search_sees_new_data(server):
    miss_status, miss = _get(f"{server.url}/search?q=zzzservenew")
    assert miss["ignored_keywords"] == ["zzzservenew"]

    ntriples = (
        '<http://example.org/servepub> '
        '<http://www.w3.org/2000/01/rdf-schema#label> "zzzservenew paper" .'
    )
    status, body = _post(f"{server.url}/update", {"add": ntriples})
    assert status == 200
    assert body["changed"] == 1
    assert body["epoch"] == 1

    status, hit = _get(f"{server.url}/search?q=zzzservenew")
    assert status == 200
    assert hit["ignored_keywords"] == []


def test_update_remove(server, example_graph):
    victim = next(t for t in example_graph.triples if "2006" in t.n3())
    status, body = _post(
        f"{server.url}/update", {"remove": serialize_ntriples([victim])}
    )
    assert status == 200
    assert body["changed"] == 1


def test_stats_endpoint(server):
    _get(f"{server.url}/search?q=cimiano")
    _get(f"{server.url}/search?q=cimiano")
    status, stats = _get(f"{server.url}/stats")
    assert status == 200
    assert stats["queries"]["completed"] >= 2
    assert set(stats["service"]) == {"max_pending", "uptime_seconds"}
    assert stats["caches"]["search_results"]["hits"] >= 1
    assert "summary_version" in stats["snapshot"]


def test_stats_reports_the_plan_lru(server):
    """The same keywords at another k miss the result memo but find
    their query plan."""
    _get(f"{server.url}/search?q=aifb+2006&k=2")
    before = _get(f"{server.url}/stats")[1]["caches"]["plans"]
    _get(f"{server.url}/search?q=aifb+2006&k=3")
    after = _get(f"{server.url}/stats")[1]["caches"]["plans"]
    assert set(after) == {"size", "maxsize", "hits", "misses", "hit_rate"}
    assert after["hits"] == before["hits"] + 1
    assert 0 < after["size"] <= after["maxsize"]


def test_bad_requests(server):
    with pytest.raises(urllib.error.HTTPError) as excinfo:
        _get(f"{server.url}/search")  # missing q
    assert excinfo.value.code == 400
    with pytest.raises(urllib.error.HTTPError) as excinfo:
        _get(f"{server.url}/search?q=%20")  # whitespace-only query
    assert excinfo.value.code == 400
    with pytest.raises(urllib.error.HTTPError) as excinfo:
        _get(f"{server.url}/nope")
    assert excinfo.value.code == 404
    with pytest.raises(urllib.error.HTTPError) as excinfo:
        _post(f"{server.url}/update", {})
    assert excinfo.value.code == 400
    # Malformed numeric knobs in a POST body are the client's mistake
    # (400), same as on the GET path — never a 500.
    with pytest.raises(urllib.error.HTTPError) as excinfo:
        _post(f"{server.url}/search", {"q": "cimiano", "k": "abc"})
    assert excinfo.value.code == 400
    with pytest.raises(urllib.error.HTTPError) as excinfo:
        _post(f"{server.url}/search", {"queries": ["cimiano"], "timeout": "soon"})
    assert excinfo.value.code == 400
    # So is a field of the wrong JSON type; the message names the field.
    for path, body, field in (
        ("/update", {"add": 5}, "add"),
        ("/search", {"q": 5}, "q"),
        ("/search", {"q": None}, "q"),
        ("/execute", {"q": "x", "rank": None}, "rank"),
        # Neither truncated nor coerced: 2.7 is not k=2, true not k=1.
        ("/search", {"q": "cimiano", "k": 2.7}, "k"),
        ("/search", {"q": "cimiano", "k": True}, "k"),
        ("/search", {"q": "cimiano", "k": "3"}, "k"),
        ("/search", {"queries": ["cimiano"], "dmax": 4.5}, "dmax"),
        ("/search", {"q": "cimiano", "dmax": False}, "dmax"),
    ):
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _post(f"{server.url}{path}", body)
        assert excinfo.value.code == 400, body
        assert repr(field) in json.loads(excinfo.value.read())["error"]


@pytest.mark.parametrize(
    "timeout",
    # What float() takes but a deadline is not: no deadline at all
    # (NaN, infinity), a bool, or one that has already passed.
    ["nan", "inf", float("nan"), float("inf"), -float("inf"), True, False,
     -1, 0, 0.0, 10 ** 400, "2.0", [2.0]],
    ids=repr,
)
def test_a_batch_timeout_is_a_finite_positive_number(server, timeout):
    with pytest.raises(urllib.error.HTTPError) as excinfo:
        _post(f"{server.url}/search", {"queries": ["cimiano"], "timeout": timeout})
    assert excinfo.value.code == 400
    assert "'timeout'" in json.loads(excinfo.value.read())["error"]


def test_a_batch_timeout_accepts_null_and_positive_numbers(server):
    for accepted in (None, 30, 2.5):
        status, body = _post(
            f"{server.url}/search", {"queries": ["cimiano"], "timeout": accepted}
        )
        assert status == 200
        assert [o["status"] for o in body["outcomes"]] == ["ok"]


def test_execute_behind_an_update_epoch_is_429(example_graph):
    """`--max-queue-wait` bounds the read lock for `/execute` as it does
    for `/search`: an epoch that holds the engine past it is
    backpressure, not a request served late."""
    service = EngineService(
        KeywordSearchEngine(DataGraph(example_graph.triples)), max_queue_wait=0.05
    )
    with ReproServer(service, port=0).start() as srv:
        service._rw.acquire_write()
        try:
            for path, body in (
                ("/execute", {"q": "cimiano 2006"}),
                ("/search", {"queries": ["cimiano 2006", "aifb"]}),
            ):
                with pytest.raises(urllib.error.HTTPError) as excinfo:
                    _post(f"{srv.url}{path}", body)
                assert excinfo.value.code == 429, path
                assert "max_queue_wait" in json.loads(excinfo.value.read())["error"]
        finally:
            service._rw.release_write()
        assert _post(f"{srv.url}/execute", {"q": "cimiano 2006"})[0] == 200
        _, stats = _get(f"{srv.url}/stats")
        assert stats["queries"]["rejected"] == 3
    service.close()


# ----------------------------------------------------------------------
# HTTP/1.1: kept connections, request-body hygiene, slow and vanished
# clients
# ----------------------------------------------------------------------

def _raw(server):
    sock = socket.create_connection((server.host, server.port), timeout=10)
    return sock, sock.makefile("rb")


def _read_response(stream):
    """One response off a raw stream: (status, headers, body), or None
    when the server closed the connection at a response boundary."""
    status_line = stream.readline()
    if not status_line:
        return None
    version, status, _ = status_line.decode("latin-1").split(" ", 2)
    assert version == "HTTP/1.1"
    headers = {}
    while True:
        line = stream.readline().decode("latin-1").rstrip("\r\n")
        if not line:
            break
        name, _, value = line.partition(":")
        headers[name.strip().lower()] = value.strip()
    body = stream.read(int(headers["content-length"]))
    return int(status), headers, body


def _handler_threads():
    return [
        t for t in threading.enumerate() if "process_request_thread" in t.name
    ]


def _wait_until(predicate, timeout=5.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.02)
    return predicate()


def test_connection_is_kept_and_counted(server):
    conn = http.client.HTTPConnection(server.host, server.port, timeout=10)
    try:
        for _ in range(3):
            conn.request("GET", "/search?q=cimiano+2006")
            response = conn.getresponse()
            body = response.read()
            assert response.status == 200
            assert response.version == 11
            assert not response.will_close
            assert json.loads(body)["candidates"]
        conn.request(
            "POST", "/execute", body=json.dumps({"q": "2006 cimiano aifb"}),
            headers={"Content-Type": "application/json"},
        )
        response = conn.getresponse()
        assert response.status == 200 and json.loads(response.read())["answers"]
        conn.request("GET", "/stats")
        response = conn.getresponse()
        stats = json.loads(response.read())
    finally:
        conn.close()
    # Five requests, one TCP connect: the reuse ratio is visible in /stats.
    assert stats["http"] == {"connections": 1, "requests": 5}


def test_client_asking_to_close_is_told_so(server):
    sock, stream = _raw(server)
    try:
        sock.sendall(b"GET /stats HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n")
        status, headers, _ = _read_response(stream)
        assert status == 200
        assert headers["connection"] == "close"
        assert _read_response(stream) is None
    finally:
        sock.close()


_STATS = b"GET /stats HTTP/1.1\r\nHost: x\r\n\r\n"


def _raw_post(path, body, length=None):
    length = len(body) if length is None else length
    return (
        f"POST {path} HTTP/1.1\r\nHost: x\r\nContent-Type: application/json\r\n"
        f"Content-Length: {length}\r\n\r\n"
    ).encode("latin-1") + body


@pytest.mark.parametrize(
    "request_bytes, status",
    [
        (_raw_post("/nope", b'{"q": "GET /stats HTTP/1.1"}'), 404),
        (_raw_post("/search", b'["not", "an", "object"]'), 400),
        (_raw_post("/search", b"{not json at all"), 400),
        (_raw_post("/search", b'{"q": "cimiano", "k": "abc"}'), 400),
        (b"GET /nope HTTP/1.1\r\nHost: x\r\nContent-Length: 9\r\n\r\nGET / HTT", 404),
    ],
)
def test_consumed_body_leaves_the_connection_clean(server, request_bytes, status):
    """Pipelined behind a refused request, the next request is parsed from
    its own first byte — never from the refused request's body."""
    sock, stream = _raw(server)
    try:
        sock.sendall(request_bytes + _STATS)
        first = _read_response(stream)
        assert first[0] == status
        assert "error" in json.loads(first[2])
        second = _read_response(stream)
        assert second is not None and second[0] == 200
        assert json.loads(second[2])["http"]["requests"] == 2
    finally:
        sock.close()


@pytest.mark.parametrize("length", ["abc", "-5", "1e3", ""])
def test_untrusted_content_length_closes_the_connection(server, length):
    """With no way to tell where the body ends, the only safe next step is
    to close: a well-formed 400 that says so, then EOF."""
    sock, stream = _raw(server)
    try:
        body = b'{"q": "cimiano"}'
        head = (
            "POST /search HTTP/1.1\r\nHost: x\r\n"
            f"Content-Length: {length}\r\n\r\n"
        ).encode("latin-1")
        try:
            sock.sendall(head + body + _STATS)
        except ConnectionError:
            pass  # already closed under us: as clean as it gets
        first = _read_response(stream)
        assert first[0] == 400
        assert first[1]["connection"] == "close"
        assert "Content-Length" in json.loads(first[2])["error"]
        try:
            assert _read_response(stream) is None
        except ConnectionError:
            pass  # reset instead of FIN: unread bytes were pending
    finally:
        sock.close()


def test_chunked_body_is_refused_and_closed(server):
    sock, stream = _raw(server)
    try:
        sock.sendall(
            b"POST /search HTTP/1.1\r\nHost: x\r\nTransfer-Encoding: chunked\r\n\r\n"
            b"10\r\n{\"q\": \"cimiano\"}\r\n0\r\n\r\n"
        )
        status, headers, _ = _read_response(stream)
        assert status == 400 and headers["connection"] == "close"
    finally:
        sock.close()


def test_slow_and_idle_clients_are_closed_after_the_timeout(server, monkeypatch):
    """The slow-loris bound: half a request line, or silence after a
    response, holds a handler thread for the handler timeout and no longer."""
    monkeypatch.setattr(http_module._Handler, "timeout", 0.3)
    assert _wait_until(lambda: not _handler_threads())

    half, _ = _raw(server)
    idle, idle_stream = _raw(server)
    try:
        half.sendall(b"GET /sea")
        idle.sendall(_STATS)
        assert _read_response(idle_stream)[0] == 200
        assert _wait_until(lambda: len(_handler_threads()) == 2)

        started = time.monotonic()
        half.settimeout(5)
        assert half.recv(1024) == b""  # closed without a response
        assert idle_stream.read(1) == b""
        assert time.monotonic() - started < 4
        assert _wait_until(lambda: not _handler_threads()), "handler threads linger"
    finally:
        half.close()
        idle.close()


def test_stalled_request_body_is_closed_after_the_timeout(server, monkeypatch):
    monkeypatch.setattr(http_module._Handler, "timeout", 0.3)
    sock, stream = _raw(server)
    try:
        sock.sendall(_raw_post("/search", b'{"q": ', length=64))  # 58 bytes short
        assert stream.read(1) == b""
        assert _wait_until(lambda: not _handler_threads())
    finally:
        sock.close()


def test_a_trickling_request_is_closed_at_its_deadline(server, monkeypatch):
    """A byte every 0.1 s keeps every read under a 0.3 s timeout; the
    request's own deadline, 0.3 s from its first byte, does not move."""
    monkeypatch.setattr(http_module._Handler, "timeout", 0.3)
    assert _wait_until(lambda: not _handler_threads())
    sock, _ = _raw(server)
    stop = threading.Event()

    def trickle():
        for byte in b"GET /search?q=" + b"x" * 100:
            if stop.is_set():
                return
            try:
                sock.sendall(bytes([byte]))
            except OSError:
                return
            time.sleep(0.1)

    sender = threading.Thread(target=trickle, daemon=True)
    try:
        started = time.monotonic()
        sender.start()
        sock.settimeout(5)
        try:
            assert sock.recv(1024) == b""  # closed without a response
        except ConnectionResetError:
            pass  # a trickled byte arrived after the close
        assert time.monotonic() - started < 1.0
        assert _wait_until(lambda: not _handler_threads()), "handler thread lingers"
    finally:
        stop.set()
        sender.join(timeout=5)
        sock.close()


def _refusal(server, request_bytes):
    """Send a request the server must refuse: (status, error message),
    after checking the refusal's shape — a JSON body of the announced
    length, ``Connection: close``, then the end of the stream."""
    sock, stream = _raw(server)
    try:
        try:
            sock.sendall(request_bytes)
        except ConnectionError:
            pass  # refused before it was all sent: the answer is still there
        status, headers, body = _read_response(stream)
        assert headers["content-type"] == "application/json"
        assert headers["connection"] == "close"
        assert len(body) == int(headers["content-length"])
        try:
            assert _read_response(stream) is None
        except ConnectionError:
            pass  # reset instead of FIN: unread bytes were pending
        return status, json.loads(body)["error"]
    finally:
        sock.close()


_BODY = b'{"q": "cimiano"}'  # 16 bytes


@pytest.mark.parametrize(
    "request_bytes, status",
    [
        # Two different lengths: either could be the body's (RFC 9112 6.3).
        (b"POST /search HTTP/1.1\r\nContent-Length: 100\r\n"
         b"Content-Length: 16\r\n\r\n" + _BODY, 400),
        (b"POST /search HTTP/1.1\r\nContent-Length: 16\r\n"
         b"Content-Length: 100\r\n\r\n" + _BODY, 400),
        # Whitespace before the colon (RFC 9112 5.1), an obs-fold
        # continuation line, a line with no colon at all.
        (b"POST /search HTTP/1.1\r\nContent-Length : 16\r\n\r\n" + _BODY, 400),
        (b"GET /stats HTTP/1.1\r\nHost: x\r\n folded\r\n\r\n", 400),
        (b"GET /stats HTTP/1.1\r\nHost x\r\n\r\n", 400),
        # The request line.
        (b"GET /stats HTTP/2.0\r\nHost: x\r\n\r\n", 505),
        (b"GET /stats HTTP/1\r\nHost: x\r\n\r\n", 400),
        (b"GET /stats extra HTTP/1.1\r\nHost: x\r\n\r\n", 400),
        (b"DELETE /stats HTTP/1.1\r\nHost: x\r\n\r\n", 501),
        # The limits: a 64 KiB line, 100 header lines.
        (b"GET /" + b"a" * 65536 + b" HTTP/1.1\r\n\r\n", 414),
        (b"GET /stats HTTP/1.1\r\nX-Long: " + b"a" * 65536 + b"\r\n\r\n", 431),
        (b"GET /stats HTTP/1.1\r\n" + b"X-Many: 1\r\n" * 101 + b"\r\n", 431),
    ],
    ids=[
        "content-length-100-then-16", "content-length-16-then-100",
        "space-before-colon", "obs-fold", "no-colon", "http-2.0",
        "bad-version", "four-words", "unsupported-method",
        "long-request-line", "long-header-line", "101-headers",
    ],
)
def test_a_malformed_request_head_is_a_json_error_and_a_close(
    server, request_bytes, status
):
    assert _refusal(server, request_bytes)[0] == status


def test_a_body_above_the_frame_bound_is_refused_unread(server):
    announced = http_module.MAX_FRAME_BYTES + 1
    status, message = _refusal(
        server, _raw_post("/search", _BODY, length=announced)
    )
    assert status == 413
    assert str(http_module.MAX_FRAME_BYTES) in message


def test_expect_100_continue_is_answered_before_the_body(server):
    sock, stream = _raw(server)
    try:
        sock.sendall(
            b"POST /search HTTP/1.1\r\nHost: x\r\nExpect: 100-continue\r\n"
            b"Content-Length: 16\r\n\r\n"
        )
        assert stream.readline() == b"HTTP/1.1 100 Continue\r\n"
        assert stream.readline() == b"\r\n"
        sock.sendall(_BODY)
        status, headers, body = _read_response(stream)
        assert status == 200 and "connection" not in headers
        assert json.loads(body)["keywords"] == ["cimiano"]
    finally:
        sock.close()


class _Reset:
    """A response stream whose client reset the connection."""

    def __init__(self):
        self.writes = 0

    def write(self, data):
        self.writes += 1
        raise ConnectionResetError(104, "Connection reset by peer")

    def flush(self):
        pass


@pytest.mark.parametrize(
    "request_line", [b"GET /search?q=cimiano+2006", b"GET /search", b"GET /nope"]
)
def test_client_reset_mid_response_is_not_a_server_error(server, request_line):
    """200, 400 and 404 alike: one write attempt, no 500 written after it
    to the dead socket, no exception out of the handler thread."""
    handler = http_module._Handler.__new__(http_module._Handler)
    handler.server = server._httpd
    handler.client_address = ("127.0.0.1", 0)
    handler.rfile = io.BytesIO(request_line + b" HTTP/1.1\r\nHost: x\r\n\r\n")
    handler.wfile = _Reset()
    handler.handle_one_request()
    assert handler.wfile.writes == 1
    assert handler.close_connection is True


# ----------------------------------------------------------------------
# One request value: X-Request-Id, the deadline, the access log
# ----------------------------------------------------------------------

def _status_and_id(conn, method, path, body=None):
    conn.request(method, path, body=None if body is None else json.dumps(body))
    response = conn.getresponse()
    response.read()
    return response.status, response.getheader("X-Request-Id")


def test_every_response_names_its_request(example_graph):
    """200, 400, 404, 429 (the queue bound comes first), 504 (the
    deadline does) and a refused head each carry an ``X-Request-Id``,
    none the same."""
    service = EngineService(
        KeywordSearchEngine(DataGraph(example_graph.triples)), max_queue_wait=0.3
    )
    with ReproServer(service, port=0).start() as srv:
        conn = http.client.HTTPConnection(srv.host, srv.port, timeout=10)
        try:
            seen = [
                _status_and_id(conn, "GET", "/search?q=cimiano"),
                _status_and_id(conn, "GET", "/search?k=1"),
                _status_and_id(conn, "GET", "/nope"),
            ]
            service._rw.acquire_write()  # an update epoch hogging the engine
            try:
                seen.append(_status_and_id(conn, "GET", "/search?q=cimiano"))
                started = time.monotonic()
                seen.append(_status_and_id(
                    conn, "POST", "/search", {"queries": ["aifb"], "timeout": 0.05}
                ))
                assert time.monotonic() - started < 0.3
            finally:
                service._rw.release_write()
        finally:
            conn.close()
        sock, stream = _raw(srv)
        try:
            sock.sendall(b"DELETE /stats HTTP/1.1\r\nHost: x\r\n\r\n")
            status, headers, _ = _read_response(stream)
        finally:
            sock.close()
        seen.append((status, headers.get("x-request-id")))
        _, stats = _get(f"{srv.url}/stats")
    service.close()
    assert [status for status, _ in seen] == [200, 400, 404, 429, 504, 501]
    ids = [request_id for _, request_id in seen]
    assert all(ids) and len(set(ids)) == len(ids), ids
    assert (stats["queries"]["rejected"], stats["queries"]["timeouts"]) == (1, 1)


def test_request_ids_are_distinct_across_threads(server):
    def client(ids):
        conn = http.client.HTTPConnection(server.host, server.port, timeout=10)
        try:
            for i in range(125):
                path = "/search?q=cimiano" if i % 5 == 0 else "/nope"
                ids.append(_status_and_id(conn, "GET", path)[1])
        finally:
            conn.close()

    per_thread = [[] for _ in range(8)]
    threads = [
        threading.Thread(target=client, args=(ids,)) for ids in per_thread
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=60)
    ids = [request_id for ids in per_thread for request_id in ids]
    assert len(ids) == 1000 and all(ids)
    assert len(set(ids)) == 1000


def test_the_verbose_access_log_escapes_and_names_each_request(
    example_graph, capsys
):
    service = EngineService(KeywordSearchEngine(DataGraph(example_graph.triples)))
    with ReproServer(service, port=0, verbose=True).start() as srv:
        sock, stream = _raw(srv)
        try:
            sock.sendall(
                b"GET /st\x01ats\x1b[2J HTTP/1.1\r\nHost: x\r\n\r\n"
                b"GET /search?q=\x7fcimiano HTTP/1.1\r\nHost: x\r\n\r\n"
            )
            responses = [_read_response(stream) for _ in range(2)]
        finally:
            sock.close()
    service.close()
    lines = capsys.readouterr().err.splitlines()
    assert [status for status, _, _ in responses] == [404, 200]
    assert len(lines) == 2
    for line, (status, headers, body) in zip(lines, responses):
        assert line.endswith(f" {status} {len(body)} {headers['x-request-id']}")
        assert not any(ord(c) < 0x20 or 0x7F <= ord(c) < 0xA0 for c in line)
    assert '"GET /st\\x01ats\\x1b[2J HTTP/1.1"' in lines[0]
    assert '"GET /search?q=\\x7fcimiano HTTP/1.1"' in lines[1]
