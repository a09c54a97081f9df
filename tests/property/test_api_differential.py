"""A stateful differential oracle over the public HTTP API.

A hypothesis state machine interleaves ``/search`` (single, batched, GET
and POST), ``/execute``, ``/update`` and malformed requests against every
serving configuration we ship — an :class:`EngineService` over a
constructed engine and over a loaded bundle, each with the result cache
off (``search_cache_size=0``) and on (256), and a
:class:`DispatchService` with two worker processes — each behind its own
:class:`ReproServer`.  The oracle is a fresh constructed engine over the
current triple set: every response body must equal the oracle's, byte
for byte, once ``timings_ms`` is taken out (whose keys must still
match).  An ``/execute`` with a ``limit`` below the answer count may
return any ``limit`` of the answers (their enumeration order differs
between stores), so there the answers must be that many of the oracle's.
Every update is read back at once through a fixed set of probes.

After every step, on every system: one epoch everywhere (each worker
too), ``seed_fallbacks == 0``, and every cache within its bound; a
malformed request is a 400 naming its field, never a 500.
"""

from __future__ import annotations

import http.client
import json
import os
import shutil
import tempfile
import threading
from urllib.parse import urlencode

from hypothesis import HealthCheck, settings, strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, rule

from repro.core.engine import KeywordSearchEngine
from repro.datasets.example import running_example_triples
from repro.rdf.graph import DataGraph
from repro.rdf.ntriples import serialize_ntriples
from repro.service import DispatchService, EngineService, ReproServer
from repro.service.encoding import encode_execution, encode_result

from test_incremental_maintenance import any_triple

#: The engines' default k: ``/execute`` ranks run 1..K+1.
K = 4
#: Keywords of the running example and of the update vocabulary.
VOCABULARY = (
    "cimiano", "aifb", "2006", "publication", "researcher", "project",
    "author", "alice", "bob", "knows", "person", "year", "article", "name",
)
#: A keyword nothing in either vocabulary is within edit distance of.
UNMATCHED = "qzxvwq"
#: Read back after every update — each probe's rank-1 answers, unbounded,
#: and the interpretations of all of them at once: together they see what
#: the update vocabulary can add or remove.
PROBES = ("person", "project", "article", "knows", "works", "name", "year",
          "alice", "bob", "2006")

queries = st.builds(
    lambda words, unmatched: " ".join(words + ([UNMATCHED] if unmatched else [])),
    st.lists(st.sampled_from(VOCABULARY), min_size=1, max_size=2),
    st.booleans(),
)
ks = st.sampled_from([None, 1, 2, K, K + 2])
dmaxes = st.sampled_from([None, 0, 2, 4])

#: ``(method, path, body or query string, field the 400 must name)``.
MALFORMED = [
    ("GET", "/search", "q=cimiano&k=1_0", "k"),
    ("GET", "/search", "q=cimiano&k=%2B3", "k"),
    ("GET", "/search", "q=cimiano&dmax=2.5", "dmax"),
    ("POST", "/search", {"q": 5}, "q"),
    ("POST", "/search", {"q": ["cimiano", 2006]}, "q"),
    ("POST", "/search", {"q": "cimiano", "k": 2.7}, "k"),
    ("POST", "/search", {"q": "cimiano", "k": True}, "k"),
    ("POST", "/search", {"q": "cimiano", "dmax": "3"}, "dmax"),
    ("POST", "/search", {"queries": "cimiano"}, "queries"),
    ("POST", "/search", {"queries": ["cimiano", {"a": 1}]}, "queries[1]"),
    ("POST", "/search", {"queries": [None]}, "queries[0]"),
    ("POST", "/search", {"queries": ["cimiano"], "timeout": "nan"}, "timeout"),
    ("POST", "/search", {"queries": ["cimiano"], "timeout": "inf"}, "timeout"),
    ("POST", "/search", {"queries": ["cimiano"], "timeout": True}, "timeout"),
    ("POST", "/search", {"queries": ["cimiano"], "timeout": -1}, "timeout"),
    ("POST", "/search", {"queries": ["cimiano"], "timeout": 0}, "timeout"),
    ("POST", "/search", {"queries": ["cimiano"], "timeout": 10 ** 400}, "timeout"),
    ("POST", "/execute", {"q": None}, "q"),
    ("POST", "/execute", {"q": "aifb", "rank": "1"}, "rank"),
    ("POST", "/execute", {"q": "aifb", "rank": True}, "rank"),
    ("POST", "/execute", {"q": "aifb", "limit": -1}, "limit"),
    ("POST", "/execute", {"q": "aifb", "limit": 2.5}, "limit"),
    ("POST", "/execute", {"q": "aifb", "limit": "5"}, "limit"),
    ("POST", "/execute", {"q": "aifb", "limit": 10 ** 30}, "limit"),
    ("POST", "/update", {"add": 5}, "add"),
    ("POST", "/update", {"remove": ["<a:s> <a:p> <a:o> ."]}, "remove"),
]


def _without_timings(body: bytes):
    """The body minus ``timings_ms``, re-encoded in its own key order,
    and the timing keys."""
    payload = json.loads(body)
    stages = list(payload.pop("timings_ms"))
    return json.dumps(payload), stages


class _System:
    """One serving configuration behind its own HTTP server."""

    def __init__(self, name, service):
        self.name = name
        self.service = service
        self.server = ReproServer(service, port=0).start()
        self.conn = http.client.HTTPConnection(
            self.server.host, self.server.port, timeout=60
        )

    def request(self, method, path, body=None):
        if method == "GET":
            self.conn.request("GET", path if body is None else f"{path}?{body}")
        else:
            self.conn.request(
                "POST", path, body=json.dumps(body).encode("ascii"),
                headers={"Content-Type": "application/json"},
            )
        response = self.conn.getresponse()
        return response.status, response.read()

    def close(self):
        self.conn.close()
        self.server.close()
        self.service.close()


class ApiDifferential(RuleBasedStateMachine):
    """The in-process tier: four configurations, many examples."""

    def build_systems(self, triples, workdir):
        bundle = os.path.join(workdir, "initial.reprobundle")
        KeywordSearchEngine(DataGraph(triples), k=K).save(bundle)
        systems = []
        for cache in (0, 256):
            constructed = KeywordSearchEngine(
                DataGraph(triples), k=K, search_cache_size=cache
            )
            loaded = KeywordSearchEngine.load(
                bundle, attach_wal=False, search_cache_size=cache
            )
            systems.append(_System(f"constructed-{cache}", EngineService(constructed)))
            systems.append(_System(f"loaded-{cache}", EngineService(loaded)))
        return systems

    @initialize(initial=st.lists(any_triple, max_size=6))
    def start(self, initial):
        self.triples = dict.fromkeys(running_example_triples())
        self.triples.update(dict.fromkeys(initial))
        self.epoch = 0
        self._oracle = None
        self.workdir = tempfile.mkdtemp(prefix="api-differential-")
        self.systems = self.build_systems(list(self.triples), self.workdir)
        # Every refusal once up front (a rule may not run in an example),
        # and then again wherever the malformed rule lands.
        for case in MALFORMED:
            self.malformed(case)

    def teardown(self):
        # A server's shutdown waits out its poll interval: close side by side.
        closing = [
            threading.Thread(target=system.close) for system in getattr(self, "systems", ())
        ]
        for thread in closing:
            thread.start()
        for thread in closing:
            thread.join()
        if hasattr(self, "workdir"):
            shutil.rmtree(self.workdir, ignore_errors=True)

    def oracle(self) -> KeywordSearchEngine:
        if self._oracle is None:
            self._oracle = KeywordSearchEngine(DataGraph(list(self.triples)), k=K)
        return self._oracle

    def each(self, method, path, body):
        for system in self.systems:
            status, answer = system.request(method, path, body)
            yield system, status, answer

    # -- reads ---------------------------------------------------------

    @rule(q=queries, k=ks, dmax=dmaxes, method=st.sampled_from(["GET", "POST"]))
    def search(self, q, k, dmax, method):
        # Then at the server's defaults: a kept result of one (k, dmax)
        # must not answer another.
        for k, dmax in {(k, dmax): None, (None, None): None}:
            expected = _without_timings(
                encode_result(self.oracle().search(q, k=k, dmax=dmax))
            )
            fields = {"q": q, "k": k, "dmax": dmax}
            if method == "GET":
                body = urlencode({n: v for n, v in fields.items() if v is not None})
            else:
                body = fields
            for system, status, answer in self.each(method, "/search", body):
                assert status == 200, (system.name, answer)
                assert _without_timings(answer) == expected, (system.name, q, k, dmax)

    @rule(batch=st.lists(queries, min_size=1, max_size=3), k=ks)
    def search_batch(self, batch, k):
        expected = [
            _without_timings(encode_result(self.oracle().search(q, k=k))) for q in batch
        ]
        for system, status, answer in self.each(
            "POST", "/search", {"queries": batch, "k": k}
        ):
            assert status == 200, (system.name, answer)
            outcomes = json.loads(answer)["outcomes"]
            assert [o["status"] for o in outcomes] == ["ok"] * len(batch), system.name
            got = [_without_timings(json.dumps(o["result"])) for o in outcomes]
            assert got == expected, (system.name, batch, k)

    @rule(q=queries, rank=st.integers(1, K + 1), limit=st.sampled_from([None, 0, 1, 5]))
    def execute(self, q, rank, limit):
        # The oracle maps every candidate: the rank-th of a whole search.
        result = self.oracle().search(q)
        candidate = result.candidates[rank - 1] if rank <= len(result) else None
        for system, status, answer in self.each(
            "POST", "/execute", {"q": q, "rank": rank, "limit": limit}
        ):
            if candidate is None:
                assert status == 404, (system.name, q, rank, answer)
                continue
            assert status == 200, (system.name, answer)
            payload = json.loads(answer)
            stages = list(payload.pop("timings_ms"))
            assert stages == [*result.timings, "execute"], (system.name, q, rank)
            assert json.dumps(payload["candidate"]).encode() == (
                candidate.json_fragment()
            ), (system.name, q, rank)
            answers = self.oracle().execute(candidate, limit=None)
            everything = json.loads(encode_execution(candidate, answers, {}))
            if limit is None or limit >= len(everything["answers"]):
                assert payload["answers"] == everything["answers"], (system.name, q)
            else:
                # Which `limit` answers come first depends on the store's
                # enumeration order; that they are the oracle's does not.
                assert len(payload["answers"]) == limit, (system.name, q)
                assert all(a in everything["answers"] for a in payload["answers"])

    # -- writes --------------------------------------------------------

    @rule(data=st.data())
    def update(self, data):
        current = sorted(self.triples, key=lambda triple: triple.n3())
        removable = st.one_of(any_triple, st.sampled_from(current)) if current else any_triple
        changes = data.draw(st.lists(
            st.one_of(st.tuples(st.just("add"), any_triple),
                      st.tuples(st.just("remove"), removable)),
            min_size=1, max_size=4,
        ))
        adds = [triple for op, triple in changes if op == "add"]
        removes = [triple for op, triple in changes if op == "remove"]
        after = dict(self.triples)
        for triple in removes:  # removes first, then adds: one epoch
            after.pop(triple, None)
        after.update(dict.fromkeys(adds))
        body = {
            "add": serialize_ntriples(adds) if adds else "",
            "remove": serialize_ntriples(removes) if removes else "",
        }
        changed = len(self.triples.keys() ^ after.keys())
        for system, status, answer in self.each("POST", "/update", body):
            assert status == 200, (system.name, answer)
            payload = json.loads(answer)
            assert payload["changed"] == changed, (system.name, payload)
            assert payload["epoch"] == self.epoch + (changed > 0), system.name
        self.epoch += changed > 0
        self.triples = after
        self._oracle = None
        for probe in PROBES:
            self.execute(probe, 1, None)
        self.search(" ".join(PROBES), None, None, "GET")

    # -- malformed requests ----------------------------------------------

    @rule(case=st.sampled_from(MALFORMED))
    def malformed(self, case):
        method, path, body, field = case
        for system, status, answer in self.each(method, path, body):
            assert status == 400, (system.name, case, status, answer)
            assert repr(field) in json.loads(answer)["error"], (system.name, case)

    # -- invariants ------------------------------------------------------

    @invariant()
    def consistent_everywhere(self):
        for system in getattr(self, "systems", ()):
            status, answer = system.request("GET", "/stats")
            assert status == 200, (system.name, answer)
            stats = json.loads(answer)
            assert stats["snapshot"]["epoch"] == self.epoch, system.name
            engines = [stats] + stats.get("workers", [])
            for engine in engines[1:]:  # the dispatch tier's workers
                assert engine["alive"] and engine["epoch"] == self.epoch, (
                    system.name, engine,
                )
            for engine in engines:
                if "exploration" in engine:
                    assert engine["exploration"]["seed_fallbacks"] == 0, system.name
                for name, cache in engine.get("caches", {}).items():
                    if "maxsize" in cache:
                        assert cache["size"] <= cache["maxsize"], (system.name, name)


ApiDifferential.TestCase.settings = settings(
    max_examples=12,
    stateful_step_count=12,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
test_in_process_tier = ApiDifferential.TestCase


class DispatchDifferential(ApiDifferential):
    """The worker-process tier: a writer with the bundle's delta log, two
    followers that replay it, results kept (the ``serve`` default)."""

    def build_systems(self, triples, workdir):
        bundle = os.path.join(workdir, "dispatch.reprobundle")
        KeywordSearchEngine(DataGraph(triples), k=K).save(bundle)
        service = DispatchService(
            bundle, workers=2, overrides={"search_cache_size": 256}
        )
        return [_System("dispatch", service)]

    # Few examples run here, and hypothesis leaves rules out of some of
    # them: each starts two epochs in, so every example replays the log.
    @initialize(initial=st.lists(any_triple, max_size=6), data=st.data())
    def start(self, initial, data):
        super().start(initial)
        self.update(data)
        self.update(data)


DispatchDifferential.TestCase.settings = settings(
    max_examples=3,
    stateful_step_count=10,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
test_dispatch_tier = DispatchDifferential.TestCase
