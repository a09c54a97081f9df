"""Property: an ``/execute`` body is the dict reference's, byte for byte.

``encode_execution(*engine.execute_ranked(q, rank, limit))`` writes the
rank-th candidate and its answers straight from the evaluator's key rows,
after a search that mapped subgraphs only up to that rank (without a
result memo).  It must equal ``json.dumps`` of ``candidate_to_json`` plus
``answers_to_json(fresh.execute(...))`` — ``fresh`` an engine built the
same way with no memo, whose search mapped all k — at every rank up to
k+1 (past the last candidate: no candidate), every limit, on a
constructed engine and a loaded bundle, at epoch 0 and after an update
whose new terms the bundle's term table lacks (so their keys are the
terms themselves), with the result memo off and on.  Unbounded, the
answers also equal a constructed engine's over the final triples: which
rows a truncating limit keeps is the tier's enumeration order, the set
of all of them is not.

With the memo on, ``/execute`` maps all k, so the ``/search`` of the same
query that follows is a memo hit whose body is a fresh engine's: the
memo never holds a rank-truncated result.
"""

import json

import pytest

from repro.core.engine import KeywordSearchEngine
from repro.rdf.graph import DataGraph
from repro.rdf.namespace import Namespace, RDF
from repro.rdf.terms import Literal
from repro.rdf.triples import Triple
from repro.service.encoding import (
    answers_to_json,
    candidate_to_json,
    encode_execution,
    encode_result,
    result_to_json,
)

K = 5
LIMITS = (None, 0, 1, 5)
QUERIES = ("conference 2005", "article john", "proceedings title", "quokka 2005")

DBLP = Namespace("http://example.org/dblp/")
NEW = Namespace("http://example.org/execute-identity/")

#: Publications whose subjects and titles the base term table lacks,
#: joined to base terms (a year, an author, a conference).
UPDATE = [
    triple
    for i in range(8)
    for triple in (
        Triple(NEW[f"pub{i}"], RDF.type, DBLP.InProceedings),
        Triple(NEW[f"pub{i}"], DBLP.title, Literal(f"quokka keyword survey {i}")),
        Triple(NEW[f"pub{i}"], DBLP.year, Literal("2005")),
        Triple(NEW[f"pub{i}"], DBLP.author, DBLP.person90),
        Triple(NEW[f"pub{i}"], DBLP.presentedAt, DBLP.conf4),
    )
]


@pytest.fixture(scope="module")
def bundle(dblp_small, tmp_path_factory):
    path = tmp_path_factory.mktemp("execute-identity") / "dblp.reprobundle"
    KeywordSearchEngine(DataGraph(dblp_small.triples), k=K).save(path)
    return path


def _engine(source, updated, cache, dblp_small, bundle):
    if source == "loaded":
        engine = KeywordSearchEngine.load(
            bundle, attach_wal=False, search_cache_size=cache
        )
    else:
        engine = KeywordSearchEngine(
            DataGraph(dblp_small.triples), k=K, search_cache_size=cache
        )
    if updated:
        assert engine.add_triples(UPDATE) == len(UPDATE)
    return engine


def _body_without_timings(body: bytes) -> dict:
    payload = json.loads(body)
    del payload["timings_ms"]
    return payload


@pytest.mark.parametrize("cache", [0, 16], ids=["memo-off", "memo-on"])
@pytest.mark.parametrize("updated", [False, True], ids=["epoch-0", "updated"])
@pytest.mark.parametrize("source", ["constructed", "loaded"])
def test_execute_body_is_the_reference(source, updated, cache, dblp_small, bundle):
    engine = _engine(source, updated, cache, dblp_small, bundle)
    fresh = _engine(source, updated, 0, dblp_small, bundle)
    triples = list(dblp_small.triples) + (UPDATE if updated else [])
    constructed = KeywordSearchEngine(DataGraph(triples), k=K)
    if source == "loaded" and updated:
        # The update's subjects are delta-only: their keys are terms.
        store = engine.store
        assert store.key_of(NEW.pub0) == NEW.pub0
        assert type(store.key_of(DBLP.person90)) is int

    executed = 0
    for query in QUERIES:
        reference = fresh.search(query).candidates
        whole = constructed.search(query).candidates
        assert [c.json_fragment() for c in reference] == [
            c.json_fragment() for c in whole
        ]
        for rank in range(1, K + 2):
            for limit in LIMITS:
                candidate, answers, timings = engine.execute_ranked(
                    query, rank=rank, limit=limit
                )
                if rank > len(reference):
                    assert candidate is None, (query, rank)
                    continue
                want = reference[rank - 1]
                expected = json.dumps({
                    "candidate": candidate_to_json(want),
                    "answers": answers_to_json(fresh.execute(want, limit=limit)),
                    "timings_ms": {stage: 1000 * s for stage, s in timings.items()},
                }).encode("ascii")
                body = encode_execution(candidate, answers, timings)
                assert body == expected, (query, rank, limit)
                if limit is None:
                    unbounded = answers_to_json(
                        constructed.execute(whole[rank - 1], limit=None)
                    )
                    assert json.loads(body)["answers"] == unbounded
                executed += 1
                if cache:
                    # The search that follows is a memo hit, and the memo
                    # holds all k candidates, not the first `rank`.
                    hits = engine.cache_stats()["search_results"]["hits"]
                    hit = engine.search(query)
                    assert engine.cache_stats()["search_results"]["hits"] == hits + 1
                    assert _body_without_timings(encode_result(hit)) == (
                        _body_without_timings(
                            json.dumps(result_to_json(fresh.search(query))).encode()
                        )
                    )
    assert executed > len(QUERIES) * len(LIMITS)
