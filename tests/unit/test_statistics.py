"""Unit tests for store cardinality statistics."""

from repro.rdf.namespace import Namespace
from repro.rdf.triples import Triple
from repro.store.statistics import StoreStatistics
from repro.store.triple_store import TripleStore

EX = Namespace("http://t/")


def make_stats():
    store = TripleStore(
        [
            Triple(EX.a, EX.p, EX.b),
            Triple(EX.a, EX.p, EX.c),
            Triple(EX.b, EX.p, EX.c),
            Triple(EX.a, EX.q, EX.b),
        ]
    )
    return store, StoreStatistics(store)


def test_predicate_count_exact_and_cached():
    _, stats = make_stats()
    assert stats.predicate_count(EX.p) == 3
    assert stats.predicate_count(EX.p) == 3  # cached path
