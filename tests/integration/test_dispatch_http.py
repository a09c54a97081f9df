"""End-to-end test of `repro serve --workers N`: HTTP over the dispatch tier.

The same stdlib server as `test_serve_http`, but the service behind it is
a :class:`DispatchService` fanning requests over two worker processes
that each map the shared bundle.  The acceptance claims: the endpoints
are tier-agnostic (same JSON shapes), and an `/update` propagates its
epoch to *every* worker before the response returns.
"""

import http.client
import json
import re
import urllib.error
import urllib.request

import pytest

from repro.core.engine import KeywordSearchEngine
from repro.rdf.graph import DataGraph
from repro.service import DispatchService, EngineService, ReproServer


@pytest.fixture(scope="module")
def bundle(example_graph, tmp_path_factory):
    path = str(tmp_path_factory.mktemp("dispatch-http") / "ex.reprobundle")
    KeywordSearchEngine(DataGraph(example_graph.triples), k=5).save(path)
    return path


@pytest.fixture(scope="module")
def dispatch_service(bundle):
    service = DispatchService(bundle, workers=2)
    yield service
    service.close()


@pytest.fixture(scope="module")
def dispatch_server(dispatch_service):
    with ReproServer(dispatch_service, port=0).start() as srv:
        yield srv


@pytest.fixture(scope="module")
def inprocess_server(bundle):
    """The in-process tier over the same bundle as it was built (it does
    not see the dispatch server's later updates)."""
    service = EngineService(KeywordSearchEngine.load(bundle, attach_wal=False))
    with ReproServer(service, port=0).start() as srv:
        yield srv
    service.close()


BOTH_TIERS = pytest.mark.parametrize("tier", ["inprocess_server", "dispatch_server"])


def _get(url):
    with urllib.request.urlopen(url, timeout=30) as resp:
        return resp.status, json.loads(resp.read().decode("utf-8"))


def _post(url, payload):
    request = urllib.request.Request(
        url,
        data=json.dumps(payload).encode("utf-8"),
        headers={"Content-Type": "application/json"},
        method="POST",
    )
    with urllib.request.urlopen(request, timeout=30) as resp:
        return resp.status, json.loads(resp.read().decode("utf-8"))


def test_search_shape_matches_inprocess_tier(dispatch_server):
    status, body = _get(f"{dispatch_server.url}/search?q=cimiano+2006&k=3")
    assert status == 200
    assert body["keywords"] == ["cimiano", "2006"]
    assert body["candidates"]
    top = body["candidates"][0]
    assert top["rank"] == 1
    assert "SELECT" in top["sparql"]
    assert "total" in body["timings_ms"]


def test_execute_endpoint(dispatch_server):
    status, body = _post(
        f"{dispatch_server.url}/execute",
        {"q": "2006 cimiano aifb", "rank": 1, "limit": 5},
    )
    assert status == 200
    assert body["candidate"]["rank"] == 1
    assert body["answers"]


@BOTH_TIERS
def test_execute_limit_rule(request, tier):
    """One rule in both tiers: ``null`` is unbounded, an integer >= 0 is
    a bound (0 answers with no rows), anything else is the client's
    mistake."""
    url = f"{request.getfixturevalue(tier).url}/execute"
    ask = {"q": "publication", "rank": 1}
    _, unbounded = _post(url, dict(ask, limit=None))
    total = len(unbounded["answers"])
    assert total >= 2
    assert _post(url, dict(ask, limit=0))[1]["answers"] == []
    assert len(_post(url, dict(ask, limit=1))[1]["answers"]) == 1
    assert _post(url, dict(ask, limit=total + 5))[1]["answers"] == unbounded["answers"]
    assert len(_post(url, ask)[1]["answers"]) == min(total, 10)  # the default
    for bad in (-1, "5", 2.5, True, [3], 10 ** 30):
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _post(url, dict(ask, limit=bad))
        assert excinfo.value.code == 400, bad
        assert "limit" in json.loads(excinfo.value.read())["error"]


@BOTH_TIERS
@pytest.mark.parametrize(
    "ask", [{"q": "2006 cimiano aifb", "rank": 99}, {"q": "zzznointerpretation"}]
)
def test_an_execute_past_the_last_rank_is_a_completed_request(request, tier, ask):
    """The 404 ran a whole search: one rule in both tiers, it completed
    (the in-process tier used to count it nowhere)."""
    server = request.getfixturevalue(tier)
    before = _get(f"{server.url}/stats")[1]["queries"]
    with pytest.raises(urllib.error.HTTPError) as excinfo:
        _post(f"{server.url}/execute", ask)
    assert excinfo.value.code == 404
    after = _get(f"{server.url}/stats")[1]["queries"]
    assert after["completed"] - before["completed"] == 1
    assert after["errors"] == before["errors"]


#: Bodies whose fields have the wrong JSON type, and the field the 400
#: must name.  (They were 500s in process and 400s through the workers.)
MALFORMED_BODIES = [
    ("/update", {"add": 5}, "add"),
    ("/update", {"remove": ["<a> <b> <c> ."]}, "remove"),
    # Text that does not parse is refused naming its field too.
    ("/update", {"add": '<a:s> <a:p> "\\UFFFFFFFF" .'}, "add"),
    ("/update", {"add": '<a:s> <a:p> "\\uD800" .'}, "add"),
    # As is a raw lone surrogate: a store holding it could not be saved.
    ("/update", {"add": '<a:s> <a:p> "x\ud800" .'}, "add"),
    ("/update", {"remove": "<a:s\udc00> <a:p> <a:o> ."}, "remove"),
    ("/update", {"add": "<a:s> <a:p> <a:o> .\n<a:s> <a:p> ."}, "add"),
    ("/update", {"add": "<a:s> <a:p> <a:o> .", "remove": "<a:s> <a:p>"}, "remove"),
    ("/search", {"q": 5}, "q"),
    ("/search", {"q": None}, "q"),
    ("/search", {"q": ["cimiano", 2006]}, "q"),
    ("/execute", {"q": None}, "q"),
    ("/execute", {"q": "publication", "rank": None}, "rank"),
    ("/execute", {"q": "publication", "rank": "1"}, "rank"),
    ("/execute", {"q": "publication", "rank": True}, "rank"),
    # A batch member is a query as 'q' is; one bad member refuses the batch.
    ("/search", {"queries": [{"a": 1}]}, "queries[0]"),
    ("/search", {"queries": ["cimiano", 1]}, "queries[1]"),
    ("/search", {"queries": [None]}, "queries[0]"),
    ("/search", {"queries": [3.5]}, "queries[0]"),
    ("/search", {"queries": [["cimiano", 2006]]}, "queries[0]"),
]


@BOTH_TIERS
@pytest.mark.parametrize("path, body, field", MALFORMED_BODIES)
def test_malformed_body_is_a_400_naming_the_field(request, tier, path, body, field):
    server = request.getfixturevalue(tier)
    with pytest.raises(urllib.error.HTTPError) as excinfo:
        _post(f"{server.url}{path}", body)
    assert excinfo.value.code == 400
    assert repr(field) in json.loads(excinfo.value.read())["error"]


#: ``GET /search`` integers that int() would take or misread, and the
#: field the 400 must name.
MALFORMED_QUERY_INTEGERS = [
    ("k=1_0", "k"),
    ("k=%2B3", "k"),
    ("k=%207", "k"),
    ("k=%D9%A3", "k"),  # ARABIC-INDIC DIGIT THREE
    ("k=abc", "k"),
    ("dmax=1_0", "dmax"),
]


@BOTH_TIERS
@pytest.mark.parametrize("param, field", MALFORMED_QUERY_INTEGERS)
def test_malformed_query_integer_is_a_400_naming_the_field(request, tier, param, field):
    server = request.getfixturevalue(tier)
    with pytest.raises(urllib.error.HTTPError) as excinfo:
        _get(f"{server.url}/search?q=cimiano&{param}")
    assert excinfo.value.code == 400
    assert repr(field) in json.loads(excinfo.value.read())["error"]
    assert _get(f"{server.url}/search?q=cimiano&k=03&dmax=-0")[0] == 200


def test_worker_applies_the_limit_rule_itself(dispatch_service):
    """Below HTTP too: a worker treats ``None`` as unbounded, 0 as no
    rows, and refuses a negative bound as a bad request."""

    def answers(limit):
        body, _, _ = dispatch_service.execute_ranked("publication", limit=limit)
        return json.loads(body)["answers"]

    assert len(answers(None)) >= 2
    assert answers(0) == []
    assert len(answers(1)) == 1
    with pytest.raises(ValueError):
        answers(-1)


@BOTH_TIERS
def test_execute_reports_flat_timings(request, tier):
    server = request.getfixturevalue(tier)
    _, search = _get(f"{server.url}/search?q=2006+cimiano+aifb")
    status, body = _post(f"{server.url}/execute", {"q": "2006 cimiano aifb"})
    assert status == 200
    assert list(body) == ["candidate", "answers", "timings_ms"]
    timings = body["timings_ms"]
    assert list(timings) == [*search["timings_ms"], "execute"]
    assert all(isinstance(ms, float) and ms >= 0 for ms in timings.values())


def test_batch_search_endpoint(dispatch_server):
    status, body = _post(
        f"{dispatch_server.url}/search",
        {"queries": ["cimiano 2006", "aifb"], "k": 3},
    )
    assert status == 200
    outcomes = body["outcomes"]
    assert [o["status"] for o in outcomes] == ["ok", "ok"]
    assert outcomes[0]["result"]["keywords"] == ["cimiano", "2006"]


@BOTH_TIERS
def test_a_batch_beyond_max_pending_is_refused_whole(request, tier):
    """A batch is admitted whole or not at all on either tier: one query
    past ``max_pending`` is a 429 that counts every member rejected and
    runs none of them."""
    server = request.getfixturevalue(tier)
    _, before = _get(f"{server.url}/stats")
    queries = ["cimiano 2006"] * 65  # max_pending is 64
    with pytest.raises(urllib.error.HTTPError) as excinfo:
        _post(f"{server.url}/search", {"queries": queries})
    assert excinfo.value.code == 429
    assert "max_pending=64" in json.loads(excinfo.value.read())["error"]
    _, after = _get(f"{server.url}/stats")
    counted = {
        key: after["queries"][key] - before["queries"][key]
        for key in ("rejected", "completed", "timeouts", "errors")
    }
    assert counted == {"rejected": 65, "completed": 0, "timeouts": 0, "errors": 0}


def test_update_epoch_advances_on_all_workers(dispatch_server):
    _, stats_before = _get(f"{dispatch_server.url}/stats")
    epoch_before = stats_before["snapshot"]["epoch"]

    ntriples = (
        '<http://example.org/dispatchpub> '
        '<http://www.w3.org/2000/01/rdf-schema#label> "zzdispatchnew paper" .'
    )
    status, body = _post(f"{dispatch_server.url}/update", {"add": ntriples})
    assert status == 200
    assert body["changed"] == 1
    assert body["epoch"] == epoch_before + 1
    # The sync broadcast acked on both workers before /update returned.
    assert body["workers_synced"] == 2

    # Immediately visible: whichever worker serves this, it is at the
    # new epoch (no read-your-writes anomaly across processes).
    for _ in range(4):
        status, hit = _get(f"{dispatch_server.url}/search?q=zzdispatchnew")
        assert status == 200
        assert hit["ignored_keywords"] == []
        assert hit["candidates"]

    status, stats = _get(f"{dispatch_server.url}/stats")
    assert status == 200
    assert stats["service"]["mode"] == "dispatch"
    live = [w for w in stats["workers"] if w.get("alive")]
    assert len(live) == 2
    assert all(w["epoch"] == body["epoch"] for w in live)


@BOTH_TIERS
def test_stats_data_reports_the_overlay(request, tier, example_graph):
    """`/stats` `data` keeps `triples` and shows the in-memory overlay
    over the mapped runs: an added triple lands in the delta, a removed
    base triple becomes a tombstone, and undoing both empties them."""
    from repro.rdf.ntriples import serialize_ntriples

    url = request.getfixturevalue(tier).url
    before = _get(f"{url}/stats")[1]["data"]
    assert set(before) == {"triples", "delta_triples", "tombstones"}
    fresh = '<http://example.org/overlay> <http://example.org/p> "zzoverlay" .\n'
    base = serialize_ntriples(example_graph.triples[:1])
    _post(f"{url}/update", {"add": fresh, "remove": base})
    during = _get(f"{url}/stats")[1]["data"]
    assert during == {
        "triples": before["triples"],
        "delta_triples": before["delta_triples"] + 1,
        "tombstones": before["tombstones"] + 1,
    }
    _post(f"{url}/update", {"add": base, "remove": fresh})
    assert _get(f"{url}/stats")[1]["data"] == before


@BOTH_TIERS
def test_a_token_of_thousands_of_ys_is_indexed_and_found(request, tier):
    """Stemming decides per ``y`` whether it is a consonant from the letter
    before it; a literal of 5,000 of them is a 200, not a failed index
    update, and a later search finds it."""
    url = request.getfixturevalue(tier).url
    word = "y" * 5000
    triple = f'<http://example.org/yrun> <http://example.org/p> "{word}" .'
    status, body = _post(f"{url}/update", {"add": triple})
    assert status == 200 and body["changed"] == 1
    status, hit = _get(f"{url}/search?q={word}")
    assert status == 200
    assert hit["ignored_keywords"] == [] and hit["candidates"]
    _post(f"{url}/update", {"remove": triple})


@BOTH_TIERS
def test_stats_has_no_kernels_block(request, tier):
    """Bound tables have one implementation, so ``/stats`` reports none:
    not at the top, and not per worker on the process tier."""
    status, stats = _get(f"{request.getfixturevalue(tier).url}/stats")
    assert status == 200 and "snapshot" in stats
    assert "kernels" not in stats
    assert ("workers" in stats) == (tier == "dispatch_server")
    for worker in stats.get("workers", []):
        assert "exploration" in worker and "kernels" not in worker


@BOTH_TIERS
def test_a_one_letter_keyword_sharing_no_character_matches_nothing(request, tier):
    """The example's one-letter terms are ``x`` and ``p``; ``b`` is one
    substitution from each but shares no character with either, so it
    matches nothing and is ignored."""
    status, hit = _get(f"{request.getfixturevalue(tier).url}/search?q=b")
    assert status == 200
    assert hit["ignored_keywords"] == ["b"] and hit["candidates"] == []


#: What legitimately differs between two responses to one request.
_TIMING_VALUES = re.compile(rb'"timings_ms": \{[^}]*\}|"latency_ms": [-+.e0-9]+')


def _bodies(server):
    """The raw response bodies of one request of every read shape, all
    over one kept connection."""
    conn = http.client.HTTPConnection(server.host, server.port, timeout=30)
    posts = [
        ("/search", {"q": "cimiano 2006", "k": 3}),
        ("/search", {"queries": ["cimiano 2006", "aifb", "zzznomatch"], "k": 3}),
        ("/execute", {"q": "2006 cimiano aifb", "rank": 1, "limit": 5}),
        ("/execute", {"q": "2006 cimiano aifb", "rank": 99}),
    ]
    try:
        conn.request("GET", "/search?q=2006+cimiano+aifb")
        exchanges = [conn.getresponse()]
        out = [(exchanges[0].status, exchanges[0].read())]
        for path, payload in posts:
            conn.request("POST", path, body=json.dumps(payload),
                         headers={"Content-Type": "application/json"})
            response = conn.getresponse()
            assert not response.will_close
            out.append((response.status, response.read()))
    finally:
        conn.close()
    return [
        (status, _TIMING_VALUES.sub(lambda m: m.group().split(b":")[0], body))
        for status, body in out
    ]


def test_bodies_equal_the_inprocess_tier_modulo_timing_values(
    dispatch_server, bundle
):
    """A worker encodes the body and the dispatcher forwards it unparsed:
    what reaches the socket must be, byte for byte, what the in-process
    tier sends for the same data — key order and separators included."""
    engine = KeywordSearchEngine.load(bundle, attach_wal=False)
    service = EngineService(engine)
    try:
        with ReproServer(service, port=0).start() as inprocess:
            expected = _bodies(inprocess)
    finally:
        service.close()
    got = _bodies(dispatch_server)
    assert [status for status, _ in got] == [200, 200, 200, 200, 404]
    assert got == expected
    assert b'"candidates": [{"rank": 1, ' in got[0][1]


def test_stats_merges_dispatch_counters(dispatch_server):
    _get(f"{dispatch_server.url}/search?q=cimiano")
    status, stats = _get(f"{dispatch_server.url}/stats")
    assert status == 200
    assert stats["http"]["requests"] >= stats["http"]["connections"] >= 2
    assert stats["queries"]["completed"] >= 1
    assert "queue_wait_p99_ms" in stats["queries"]
    assert "restarts" in stats["dispatch"]
    assert stats["dispatch"]["watermark"] == stats["snapshot"]["epoch"]
    # A worker's cache block reaches /stats as the worker reported it.
    for worker in stats["workers"]:
        assert set(worker["caches"]["keyword_lookups"]) == {
            "size", "maxsize", "hits", "misses", "hit_rate", "invalidated",
        }


def test_stats_reports_each_workers_plan_lru(dispatch_server):
    """Per worker under ``workers[i].caches``: a query repeated more
    often than there are workers is a plan hit on at least one."""
    def plan_hits():
        stats = _get(f"{dispatch_server.url}/stats")[1]
        plans = [worker["caches"]["plans"] for worker in stats["workers"]]
        for block in plans:
            assert set(block) == {"size", "maxsize", "hits", "misses", "hit_rate"}
        return sum(block["hits"] for block in plans)

    before = plan_hits()
    for k in range(1, 5):
        _get(f"{dispatch_server.url}/search?q=project+aifb&k={k}")
    assert plan_hits() > before


def test_a_staged_bundle_is_removed_when_the_server_stops(tmp_path):
    """``serve --workers N`` without ``--bundle`` stages the workers'
    bundle and its WAL in a ``repro-serve-*`` directory; once a SIGTERM
    has drained the server, none is left in the temp dir."""
    import os
    import signal
    import subprocess
    import sys

    def staged():
        return [p.name for p in tmp_path.iterdir() if p.name.startswith("repro-serve-")]

    server = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--workers", "1",
         "--dataset", "example", "--port", "0"],
        env=dict(os.environ, TMPDIR=str(tmp_path)),
        stderr=subprocess.PIPE,
        text=True,
    )
    try:
        for line in server.stderr:
            if line.startswith("# serving on"):
                break
        assert len(staged()) == 1  # staged while it serves
        server.send_signal(signal.SIGTERM)
        server.stderr.read()
        assert server.wait(timeout=60) == 0
    finally:
        if server.poll() is None:
            server.kill()
            server.wait()
    assert staged() == []
