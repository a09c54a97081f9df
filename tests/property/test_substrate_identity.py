"""Property: the cached substrate never changes what exploration returns.

Each plan's view numbers its elements by canonical rank — one stable repr
sort of the base and overlay elements, base first — and exploration runs
and emits subgraphs in those ids, so the result is a function of the
abstract graph — not of how long the substrate has been cached, which
views and bound tables it has accumulated, or how the graph under it was
arrived at.

Part 1 holds that against ground truth: on random summary graphs, for
the bounded loop that ships and for the unbounded oracle
(``tests/reference_exploration.py`` at ``guided=False``), the returned
costs are exactly those of the brute-force enumerator of
``test_topk_guarantee.py``.

Part 2 drives the whole engine pipeline — real keyword lookups, overlay
augmentation (value vertices and A-edges on top of the shared summary
graph), and incremental ``add_triples`` / ``remove_triples`` batches whose
version bumps must invalidate the substrate.  After every batch the
incrementally maintained engine must explore *byte-identically* — same
costs, same connecting elements, same per-keyword path tuples, same
ranking among equal-cost candidates, same diagnostics — to an engine
built from scratch over the current triples: a stale substrate (or a
query plan surviving on it) is exactly what would make the two differ.
Part 3 runs the same comparison with the plan LRU in play: every query
explored again while its plan is cached, again after the LRU is cleared,
and after every batch.
"""

from functools import partial

import pytest
from hypothesis import given, settings, strategies as st

from reference_exploration import explore_top_k as reference_explore_top_k
from test_topk_guarantee import build_random_graph, oracle_top_k

from repro.core.engine import KeywordSearchEngine
from repro.core.exploration import explore_top_k
from repro.rdf.graph import DataGraph
from repro.rdf.namespace import RDF, RDFS
from repro.rdf.terms import Literal, URI
from repro.rdf.triples import Triple
from repro.summary.augmentation import AugmentedSummaryGraph, augment

# ----------------------------------------------------------------------
# Part 1: randomized raw summary graphs (no overlay)
# ----------------------------------------------------------------------


@st.composite
def exploration_cases(draw):
    n = draw(st.integers(min_value=2, max_value=7))
    n_edges = draw(st.integers(min_value=1, max_value=10))
    edges = draw(
        st.lists(
            st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
            min_size=n_edges,
            max_size=n_edges,
        )
    )
    m = draw(st.integers(min_value=1, max_value=3))
    keyword_sets = [
        set(draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=2)))
        for _ in range(m)
    ]
    cost_choices = draw(
        st.lists(
            st.sampled_from([0.25, 0.5, 1.0, 1.5, 2.0]),
            min_size=n + n_edges,
            max_size=n + n_edges,
        )
    )
    k = draw(st.integers(min_value=1, max_value=5))
    return n, edges, keyword_sets, cost_choices, k


#: Every property runs the loop that ships and the unbounded oracle loop.
loops = st.sampled_from(
    [explore_top_k, partial(reference_explore_top_k, guided=False)]
)


@given(exploration_cases(), loops)
@settings(max_examples=120, deadline=None)
def test_substrate_matches_reference_on_random_graphs(case, explore):
    n, edges, keyword_indices, cost_choices, k = case
    graph, keys = build_random_graph(n, edges)
    keyword_sets = [{keys[i] for i in indices} for indices in keyword_indices]
    elements = [v.key for v in graph.vertices] + [e.key for e in graph.edges]
    costs = {
        el: (cost_choices[i] if i < len(cost_choices) else 1.0)
        for i, el in enumerate(elements)
    }
    augmented = AugmentedSummaryGraph(graph, [set(ks) for ks in keyword_sets], {})
    result = explore(augmented, costs, k=k, dmax=6)
    expected = oracle_top_k(graph, keyword_sets, costs, k, 6)
    assert [sg.cost for sg in result.subgraphs] == pytest.approx(expected)


# ----------------------------------------------------------------------
# Part 2: the full pipeline — overlay augmentation + index maintenance
# ----------------------------------------------------------------------

EX = "http://example.org/sub/"
ENTITIES = [URI(EX + f"e{i}") for i in range(5)]
CLASSES = [URI(EX + c) for c in ("Person", "Project", "Article")]
RELATIONS = [URI(EX + r) for r in ("knows", "worksOn")]
ATTRIBUTES = [URI(EX + a) for a in ("name", "year")]
VALUES = [Literal(v) for v in ("alice", "bob", "2006")]

#: Queries spanning class, relation, attribute, and value matches — the
#: value/attribute ones force overlay elements (V-vertices, A-edges).
QUERIES = ("person", "alice knows", "name 2006", "project bob", "year article")

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
any_triple = st.one_of(
    type_triples, subclass_triples, relation_triples, attribute_triples
)

batches = st.lists(
    st.tuples(
        st.sampled_from(["add", "remove"]),
        st.lists(any_triple, min_size=1, max_size=4),
    ),
    min_size=1,
    max_size=5,
)


def _bytes_signature(result):
    return [
        (sg.cost, sg.connecting_element, sg.paths, sg.elements)
        for sg in result.subgraphs
    ]


def _diagnostics(result):
    return (
        result.cursors_created,
        result.cursors_popped,
        result.cursors_pruned,
        result.candidates_offered,
        result.terminated_by,
        result.max_queue_size,
    )


def _explore(engine, query, explore):
    matches = [m for m in engine.keyword_index.lookup_all(query.split()) if m]
    if not matches:
        return None
    augmented = augment(engine.summary, matches)
    costs = engine.cost_model.element_costs(augmented)
    return explore(augmented, costs, k=5, dmax=6)


def _assert_engine_identity(engine, explore):
    rebuilt = KeywordSearchEngine(
        DataGraph(engine.graph.triples), cost_model="c3", k=5
    )
    for query in QUERIES:
        maintained = _explore(engine, query, explore)
        reference = _explore(rebuilt, query, explore)
        if reference is None:
            assert maintained is None
            continue
        assert _bytes_signature(maintained) == _bytes_signature(reference)
        assert _diagnostics(maintained) == _diagnostics(reference)


@given(
    initial=st.lists(any_triple, min_size=3, max_size=15),
    batches=batches,
    explore=loops,
)
@settings(max_examples=40, deadline=None)
def test_substrate_matches_reference_through_maintenance(initial, batches, explore):
    engine = KeywordSearchEngine(DataGraph(initial), cost_model="c3", k=5)
    _assert_engine_identity(engine, explore)

    for op, triples in batches:
        if op == "add":
            engine.add_triples(triples)
        else:
            engine.remove_triples(triples)
        # The version bump must have invalidated the substrate: the
        # maintained engine explores the *updated* graph, including
        # overlay augmentation, exactly as a fresh one does.
        _assert_engine_identity(engine, explore)


# ----------------------------------------------------------------------
# Part 3: query plans reused, dropped and outlived
# ----------------------------------------------------------------------


def _plans(engine):
    return engine.summary.exploration_substrate().plans


@given(
    initial=st.lists(any_triple, min_size=3, max_size=15),
    batches=batches,
    explore=loops,
)
@settings(max_examples=25, deadline=None)
def test_cached_and_rebuilt_plans_match_reference(initial, batches, explore):
    """Inputs for Part 2's comparison: a second pass whose every plan is
    a hit, a pass after ``plans.clear()``, and each batch followed by a
    pass that finds no plan if the batch moved the summary version (a
    class count changed) and then a pass that hits the plans it built."""
    engine = KeywordSearchEngine(DataGraph(initial), cost_model="c3", k=5)
    _assert_engine_identity(engine, explore)
    misses = _plans(engine).misses
    _assert_engine_identity(engine, explore)
    assert _plans(engine).misses == misses
    _plans(engine).clear()
    _assert_engine_identity(engine, explore)

    for op, triples in batches:
        version = engine.summary.version
        if op == "add":
            engine.add_triples(triples)
        else:
            engine.remove_triples(triples)
        if engine.summary.version != version:
            assert len(_plans(engine)) == 0
        _assert_engine_identity(engine, explore)
        misses = _plans(engine).misses
        _assert_engine_identity(engine, explore)
        assert _plans(engine).misses == misses
