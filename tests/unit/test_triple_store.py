"""Unit tests for the indexed triple store."""

import pytest

from repro.rdf.namespace import Namespace
from repro.rdf.terms import Literal, URI
from repro.rdf.triples import Triple
from repro.store.triple_store import TripleStore

EX = Namespace("http://t/")

TRIPLES = [
    Triple(EX.a, EX.p, EX.b),
    Triple(EX.a, EX.p, EX.c),
    Triple(EX.a, EX.q, EX.b),
    Triple(EX.b, EX.p, EX.c),
    Triple(EX.b, EX.r, Literal("v")),
]


@pytest.fixture
def store():
    return TripleStore(TRIPLES)


def test_len(store):
    assert len(store) == 5


def test_contains(store):
    assert Triple(EX.a, EX.p, EX.b) in store
    assert Triple(EX.a, EX.p, EX.z) not in store


def test_objects_and_subjects_are_the_two_bound_match_patterns(store):
    for s in (EX.a, EX.b, EX.z):
        for p in (EX.p, EX.q, EX.r, EX.z):
            assert list(store.objects(s, p)) == [t.object for t in store.match(s, p)]
    for p in (EX.p, EX.r, EX.z):
        for o in (EX.b, EX.c, Literal("v")):
            assert list(store.subjects(p, o)) == [t.subject for t in store.match(None, p, o)]
    store.remove(Triple(EX.a, EX.q, EX.b))
    assert list(store.objects(EX.a, EX.q)) == []


def test_duplicate_insert_returns_false(store):
    assert store.add(Triple(EX.a, EX.p, EX.b)) is False
    assert len(store) == 5


@pytest.mark.parametrize(
    "pattern,expected_count",
    [
        ((None, None, None), 5),
        ((EX.a, None, None), 3),
        ((None, EX.p, None), 3),
        ((None, None, EX.b), 2),
        ((EX.a, EX.p, None), 2),
        ((None, EX.p, EX.c), 2),
        ((EX.a, None, EX.b), 2),
        ((EX.a, EX.p, EX.b), 1),
        ((EX.z, None, None), 0),
        ((None, EX.z, None), 0),
    ],
)
def test_match_all_access_patterns(store, pattern, expected_count):
    results = list(store.match(*pattern))
    assert len(results) == expected_count
    # Every result actually matches the pattern.
    s, p, o = pattern
    for triple in results:
        assert s is None or triple.subject == s
        assert p is None or triple.predicate == p
        assert o is None or triple.object == o


@pytest.mark.parametrize(
    "pattern",
    [
        (None, None, None),
        (EX.a, None, None),
        (None, EX.p, None),
        (None, None, EX.b),
        (EX.a, EX.p, None),
        (None, EX.p, EX.c),
        (EX.a, None, EX.b),
        (EX.a, EX.p, EX.b),
    ],
)
def test_count_agrees_with_match(store, pattern):
    assert store.count(*pattern) == len(list(store.match(*pattern)))


def test_access_path_probes(store):
    """The evaluator's four probes of one atom's access path; the atom's
    constants may be given up front and change nothing."""
    for access in (store.access(EX.p), store.access(EX.p, EX.a, EX.c)):
        assert set(access.subjects(EX.c)) == {EX.a, EX.b}
        assert set(access.objects(EX.a)) == {EX.b, EX.c}
        assert access.has(EX.a, EX.c) and not access.has(EX.c, EX.a)
    assert sorted(store.access(EX.p).pairs(), key=repr) == sorted(
        ((t.subject, t.object) for t in store.match(None, EX.p, None)), key=repr
    )
    absent = store.access(EX.z)
    assert not absent.has(EX.a, EX.b) and list(absent.pairs()) == []
    assert list(absent.objects(EX.a)) == list(absent.subjects(EX.b)) == []


def test_predicates(store):
    assert set(store.predicates()) == {EX.p, EX.q, EX.r}


def test_predicate_cardinality(store):
    assert store.predicate_cardinality(EX.p) == 3
    assert store.predicate_cardinality(EX.z) == 0


def test_a_data_graph_keeps_its_triples_in_its_store(example_graph):
    store = example_graph.store
    assert isinstance(store, TripleStore)
    assert len(store) == len(example_graph)
    assert set(store.match()) == set(example_graph)
