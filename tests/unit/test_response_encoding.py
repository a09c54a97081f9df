"""The bytes-level response path: every encoder against its dict oracle.

``result_to_json`` / ``candidate_to_json`` / ``answers_to_json`` build a
payload as dicts; ``encode_result`` / ``encode_execution`` build the same
payload as bytes from fragments each candidate encodes once.  The
contract is ``encoder(x) == json.dumps(oracle(x)).encode()``, byte for
byte — the benchmark's load generator digests response bodies.

The frozen signature table pins ``query_signature``'s output to literal
strings produced by the implementation the committed goldens were seeded
with, so a faster normaliser cannot drift from them.
"""

import json

import pytest

from repro.core.engine import KeywordSearchEngine, QueryCandidate
from repro.datasets.workloads import (
    dblp_performance_queries,
    tap_effectiveness_workload,
)
from repro.quality.signatures import query_signature
from repro.query.conjunctive import Atom, ConjunctiveQuery
from repro.rdf.graph import DataGraph
from repro.rdf.terms import URI, Literal, Variable
from repro.service.http import (
    _encode_outcome,
    answers_to_json,
    candidate_to_json,
    encode_execution,
    encode_result,
    result_to_json,
)
from repro.service.service import BatchOutcome

X, Y, Z = Variable("x"), Variable("y"), Variable("z")
P, T, C = URI("u:p"), URI("u:t"), URI("u:C")

FROZEN_SIGNATURES = [
    (
        [Atom(T, X, C)],
        "cq:('u:t', ('var', (('u:t', 0, ('const', '<u:C>')),)), ('con"
        "st', ('term', '<u:C>')))",
    ),
    (
        [Atom(T, X, C), Atom(P, X, Y), Atom(P, X, Literal("v"))],
        'cq:(\'u:p\', (\'var\', ((\'u:p\', 0, (\'const\', \'"v"\')), (\'u:p\', 0,'
        " ('var',)), ('u:t', 0, ('const', '<u:C>')))), ('const', ('te"
        'rm\', \'"v"\')));(\'u:p\', (\'var\', ((\'u:p\', 0, (\'const\', \'"v"\')),'
        " ('u:p', 0, ('var',)), ('u:t', 0, ('const', '<u:C>')))), ('v"
        "ar', (('u:p', 1, ('var',)),)));('u:t', ('var', (('u:p', 0, ("
        '\'const\', \'"v"\')), (\'u:p\', 0, (\'var\',)), (\'u:t\', 0, (\'const\','
        " '<u:C>')))), ('const', ('term', '<u:C>')))",
    ),
    (
        [Atom(P, X, Y), Atom(P, Y, X), Atom(P, Z, Z)],
        "cq:('u:p', ('var', (('u:p', 0, ('var',)), ('u:p', 1, ('var',"
        ")))), ('var', (('u:p', 0, ('var',)), ('u:p', 1, ('var',)))))",
    ),
    (
        [Atom(P, X, Literal('a "b"\n', language="en")),
         Atom(P, X, Literal("7", datatype=URI("u:int")))],
        'cq:(\'u:p\', (\'var\', ((\'u:p\', 0, (\'const\', \'"7"^^<u:int>\')), ('
        '\'u:p\', 0, (\'const\', \'"a \\\\"b\\\\"\\\\n"@en\')))), (\'const\', (\'ter'
        'm\', \'"7"^^<u:int>\')));(\'u:p\', (\'var\', ((\'u:p\', 0, (\'const\', '
        '\'"7"^^<u:int>\')), (\'u:p\', 0, (\'const\', \'"a \\\\"b\\\\"\\\\n"@en\'))'
        ')), (\'const\', (\'term\', \'"a \\\\"b\\\\"\\\\n"@en\')))',
    ),
    (
        [Atom(P, C, Literal("v"))],
        "cq:('u:p', ('const', ('term', '<u:C>')), ('const', ('term', "
        '\'"v"\')))',
    ),
]

AIFB_TOP_SIGNATURE = (
    "cq:('http://example.org/aifb/name', ('var', (('http://exampl"
    'e.org/aifb/name\', 0, (\'const\', \'"AIFB"\')), (\'http://www.w3.o'
    "rg/1999/02/22-rdf-syntax-ns#type', 0, ('const', '<http://exa"
    'mple.org/aifb/Institute>\')))), (\'const\', (\'term\', \'"AIFB"\'))'
    ");('http://www.w3.org/1999/02/22-rdf-syntax-ns#type', ('var'"
    ', ((\'http://example.org/aifb/name\', 0, (\'const\', \'"AIFB"\')),'
    " ('http://www.w3.org/1999/02/22-rdf-syntax-ns#type', 0, ('co"
    "nst', '<http://example.org/aifb/Institute>')))), ('const', ("
    "'term', '<http://example.org/aifb/Institute>')))"
)


def _oracle(result) -> bytes:
    return json.dumps(result_to_json(result)).encode("utf-8")


def _workload(name, graphs):
    if name == "example":
        return graphs[name], ["2006 cimiano aifb", "cimiano 2006", "aifb", "zzznomatch"]
    if name == "dblp":
        return graphs[name], [" ".join(q.keywords) for q in dblp_performance_queries()]
    return graphs[name], [" ".join(q.keywords) for q in tap_effectiveness_workload()]


@pytest.fixture(scope="module")
def graphs(example_graph, dblp_small, tap_small):
    return {"example": example_graph, "dblp": dblp_small, "tap": tap_small}


@pytest.mark.parametrize("dataset", ["example", "dblp", "tap"])
def test_encoded_result_is_the_json_dump_of_the_dict(dataset, graphs):
    graph, queries = _workload(dataset, graphs)
    engine = KeywordSearchEngine(DataGraph(graph.triples), k=10)
    candidates = 0
    for query in queries:
        result = engine.search(query)
        candidates += len(result.candidates)
        assert encode_result(result) == _oracle(result)
        # Once more, now that every fragment is cached.
        assert encode_result(result) == _oracle(result)
    assert candidates, f"the {dataset} workload must yield interpretations"


def test_memo_hit_body_equals_memo_miss_body(example_graph):
    engine = KeywordSearchEngine(
        DataGraph(example_graph.triples), k=5, search_cache_size=8
    )
    miss = engine.search("2006 cimiano aifb")
    hit = engine.search("2006 cimiano aifb")
    assert engine.cache_stats()["search_results"]["hits"] == 1
    assert hit is not miss
    # A hit reports the original computation's timings, so not even the
    # timing values differ.
    assert encode_result(hit) == encode_result(miss) == _oracle(miss)


def test_memo_copy_mutated_in_place_cannot_serve_stale_bytes(example_graph):
    """The fragments live on the (never mutated) candidates, not on the
    result: trimming or reordering one caller's copy changes that copy's
    body and nobody else's."""
    engine = KeywordSearchEngine(
        DataGraph(example_graph.triples), k=5, search_cache_size=8
    )
    first = engine.search("cimiano 2006")
    pristine = encode_result(first)
    assert len(first.candidates) > 1
    first.candidates.reverse()
    del first.candidates[1:]
    first.keywords.append("tampered")
    assert encode_result(first) == _oracle(first) != pristine
    again = engine.search("cimiano 2006")
    assert encode_result(again) == pristine


def test_execution_and_batch_outcomes_use_the_same_fragments(example_graph):
    engine = KeywordSearchEngine(DataGraph(example_graph.triples), k=5)
    result = engine.search("2006 cimiano aifb")
    best = result.best()
    answers = engine.execute(best, limit=5)
    assert answers
    timings = {"keyword_mapping": 0.00025, "total": 0.0015, "execute": 0.002}
    assert encode_execution(best, answers, timings) == json.dumps(
        {"candidate": candidate_to_json(best), "answers": answers_to_json(answers),
         "timings_ms": {stage: 1000 * s for stage, s in timings.items()}}
    ).encode("utf-8")

    ok = BatchOutcome(0, "q", "ok", result=result, latency_seconds=0.00125)
    assert _encode_outcome(ok) == json.dumps(
        {"index": 0, "status": "ok", "latency_ms": 1000 * 0.00125,
         "result": result_to_json(result)}
    ).encode("utf-8")
    failed = BatchOutcome(1, " ", "error", error=ValueError("empty"))
    assert json.loads(_encode_outcome(failed)) == {
        "index": 1, "status": "error", "latency_ms": 0.0, "error": "empty",
    }
    expired = BatchOutcome(2, "q", "timeout")
    assert json.loads(_encode_outcome(expired)) == {
        "index": 2, "status": "timeout", "latency_ms": 0.0,
    }


def test_encoded_bytes_pass_through_the_tier_seam():
    body = b'{"already": "encoded by a worker"}'
    assert encode_result(body) is body
    assert encode_execution(body, None, None) is body


@pytest.mark.parametrize("atoms, expected", FROZEN_SIGNATURES)
def test_query_signature_matches_the_frozen_table(atoms, expected):
    assert query_signature(ConjunctiveQuery(atoms)) == expected
    # Renaming and atom order leave it alone.
    renamed = {X: Variable("b"), Y: Variable("c"), Z: Variable("a")}
    shuffled = [
        Atom(a.predicate, renamed.get(a.arg1, a.arg1), renamed.get(a.arg2, a.arg2))
        for a in reversed(atoms)
    ]
    assert query_signature(ConjunctiveQuery(shuffled)) == expected


def test_candidate_signature_with_and_without_the_held_form(example_graph):
    engine = KeywordSearchEngine(DataGraph(example_graph.triples), k=3)
    top = engine.search("aifb").best()
    # From query mapping's canonical form ...
    assert top.signature == AIFB_TOP_SIGNATURE == query_signature(top.query)
    # ... and computed on demand when the caller holds none.
    bare = QueryCandidate(top.query, top.cost, top.subgraph, rank=1)
    assert bare.signature == AIFB_TOP_SIGNATURE
    assert bare.json_fragment() == top.json_fragment()
