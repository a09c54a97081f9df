"""Property: incremental index maintenance ≡ rebuild from scratch.

For random sequences of triple additions and removals applied through
``KeywordSearchEngine.add_triples`` / ``remove_triples`` (which propagate
deltas through the data graph, keyword index, summary graph, and triple
store via the :class:`~repro.maintenance.IndexManager`), the engine must
return *identical* top-k candidates — same canonical query forms, same
costs, same ranks — as a fresh engine rebuilt over the final triple set.

This is the correctness contract that makes live updates safe: no derived
structure may drift from what a full offline rebuild would produce.  It
is also the check on maintenance as the third consumer of
:mod:`repro.rdf.derivation`: below the search level, the maintained
summary counts, class contexts and posting rows equal the rebuild's,
Definition 1 violations included.
"""

from hypothesis import given, settings, strategies as st

from repro.core.engine import KeywordSearchEngine
from repro.query.isomorphism import canonical_form
from repro.rdf.graph import DataGraph
from repro.rdf.namespace import RDF, RDFS
from repro.rdf.terms import Literal, URI
from repro.rdf.triples import Triple

EX = "http://example.org/inc/"
ENTITIES = [URI(EX + f"e{i}") for i in range(5)]
CLASSES = [URI(EX + c) for c in ("Person", "Project", "Article")]
RELATIONS = [URI(EX + r) for r in ("knows", "worksOn")]
ATTRIBUTES = [URI(EX + a) for a in ("name", "year")]
VALUES = [Literal(v) for v in ("alice", "bob", "2006")]

#: Keyword queries covering every element kind the index serves: classes,
#: relations, attributes, values, and multi-keyword combinations.
QUERIES = ("person", "alice", "knows", "name", "2006", "project bob", "year article")

type_triples = st.builds(
    lambda e, c: Triple(e, RDF.type, c),
    st.sampled_from(ENTITIES),
    st.sampled_from(CLASSES),
)
subclass_triples = st.builds(
    lambda a, b: Triple(a, RDFS.subClassOf, b),
    st.sampled_from(CLASSES),
    st.sampled_from(CLASSES),
)
relation_triples = st.builds(
    Triple,
    st.sampled_from(ENTITIES),
    st.sampled_from(RELATIONS),
    st.sampled_from(ENTITIES),
)
attribute_triples = st.builds(
    Triple,
    st.sampled_from(ENTITIES),
    st.sampled_from(ATTRIBUTES),
    st.sampled_from(VALUES),
)
# Definition 1 violations the data graph records as conflicts: a type
# edge to a literal, an R-edge to a class, an attribute on a class.
literal_type_triples = st.builds(
    lambda e, v: Triple(e, RDF.type, v),
    st.sampled_from(ENTITIES),
    st.sampled_from(VALUES),
)
class_relation_triples = st.builds(
    Triple,
    st.sampled_from(ENTITIES),
    st.sampled_from(RELATIONS),
    st.sampled_from(CLASSES),
)
class_attribute_triples = st.builds(
    Triple,
    st.sampled_from(CLASSES),
    st.sampled_from(ATTRIBUTES),
    st.sampled_from(VALUES),
)
any_triple = st.one_of(
    type_triples,
    subclass_triples,
    relation_triples,
    attribute_triples,
    literal_type_triples,
    class_relation_triples,
    class_attribute_triples,
)

#: An update batch: add or remove a handful of triples at once.
batches = st.lists(
    st.tuples(st.sampled_from(["add", "remove"]), st.lists(any_triple, min_size=1, max_size=4)),
    min_size=1,
    max_size=8,
)


def _signature(engine, query):
    result = engine.search(query)
    return [
        (canonical_form(c.query), round(c.cost, 9), c.rank) for c in result.candidates
    ]


def _assert_equivalent(maintained, rebuilt):
    for query in QUERIES:
        assert _signature(maintained, query) == _signature(rebuilt, query), query


def _assert_derived_equal(maintained, rebuilt):
    """Below the search level: every summary vertex's and edge's
    aggregation count, the totals, both class-context refcount groups and
    every vocabulary term's posting rows."""
    ours, theirs = maintained.summary, rebuilt.summary
    assert {v.key: v.agg_count for v in ours.vertices} == {
        v.key: v.agg_count for v in theirs.vertices
    }
    assert {e.key: (e.kind, e.agg_count) for e in ours.edges} == {
        e.key: (e.kind, e.agg_count) for e in theirs.edges
    }
    for name in ("total_entities", "total_relation_edges", "total_attribute_edges"):
        assert getattr(ours, name) == getattr(theirs, name), name
    ours, theirs = maintained.keyword_index, rebuilt.keyword_index
    assert ours._attribute_class_refs == theirs._attribute_class_refs
    assert ours._value_occurrence_refs == theirs._value_occurrence_refs
    ours, theirs = ours._index, theirs._index
    assert sorted(ours.vocabulary) == sorted(theirs.vocabulary)
    for term in theirs.vocabulary:
        assert sorted(ours.lookup(term), key=repr) == sorted(
            theirs.lookup(term), key=repr
        ), term


@given(initial=st.lists(any_triple, max_size=15), batches=batches)
@settings(max_examples=75, deadline=None)
def test_incremental_maintenance_matches_rebuild(initial, batches):
    engine = KeywordSearchEngine(DataGraph(initial), cost_model="c3", k=5)
    current = dict.fromkeys(initial)

    for op, triples in batches:
        if op == "add":
            engine.add_triples(triples)
            current.update(dict.fromkeys(triples))
        else:
            engine.remove_triples(triples)
            for t in triples:
                current.pop(t, None)

    rebuilt = KeywordSearchEngine(DataGraph(current), cost_model="c3", k=5)
    _assert_equivalent(engine, rebuilt)
    _assert_derived_equal(engine, rebuilt)

    # The mirrored triple store must match exactly as well.
    assert len(engine.store) == len(rebuilt.store)
    assert set(engine.store.match()) == set(rebuilt.store.match())
    assert engine.graph.stats() == rebuilt.graph.stats()
    assert engine.summary.stats()["vertices"] == rebuilt.summary.stats()["vertices"]
    assert engine.summary.stats()["edges"] == rebuilt.summary.stats()["edges"]


@given(initial=st.lists(any_triple, min_size=3, max_size=15), batches=batches)
@settings(max_examples=15, deadline=None)
def test_remove_everything_then_readd_roundtrips(initial, batches):
    """Draining the graph and re-adding the same triples restores results."""
    engine = KeywordSearchEngine(DataGraph(initial), cost_model="c3", k=5)
    before = {q: _signature(engine, q) for q in QUERIES}

    triples = list(engine.graph.triples)
    engine.remove_triples(triples)
    assert len(engine.graph) == 0
    assert len(engine.store) == 0
    for q in QUERIES:
        assert _signature(engine, q) == []

    engine.add_triples(triples)
    for q in QUERIES:
        assert _signature(engine, q) == before[q]


@given(initial=st.lists(any_triple, max_size=12), extra=st.lists(any_triple, min_size=1, max_size=6))
@settings(max_examples=20, deadline=None)
def test_duplicate_and_absent_deltas_are_noops(initial, extra):
    """Adding present triples / removing absent ones changes nothing."""
    engine = KeywordSearchEngine(DataGraph(initial), cost_model="c3", k=5)
    present = list(engine.graph.triples)
    absent = [t for t in extra if t not in engine.graph]

    assert engine.add_triples(present) == 0
    assert engine.remove_triples(absent) == 0
    rebuilt = KeywordSearchEngine(DataGraph(present), cost_model="c3", k=5)
    _assert_equivalent(engine, rebuilt)
