"""Property: the exploration that ships is byte-identical to its oracle.

``explore_top_k``'s structure-of-arrays loop against the literal
Algorithm 1/2 of ``tests/reference_exploration.py`` — same subgraphs,
same ranking among equal costs, same six diagnostics — over one case
space: the bundled datasets, an mmap-backed bundle engine, randomized
graphs and incremental update batches.
"""

from hypothesis import given, settings, strategies as st

from reference_exploration import explore_top_k as reference_explore_top_k
from reference_exploration import reference_loop

from repro.core.engine import KeywordSearchEngine
from repro.core.exploration import explore_top_k
from repro.datasets import TapConfig, generate_tap, running_example_graph
from repro.rdf.namespace import RDF
from repro.rdf.terms import URI
from repro.rdf.triples import Triple
from repro.summary.augmentation import AugmentedSummaryGraph
from repro.summary.elements import SummaryEdgeKind
from repro.summary.summary_graph import SummaryGraph


def _search_signature(result):
    """Everything the engine computes, not just the ranked queries: the
    byte-identity contract covers diagnostics too."""
    exploration = result.exploration
    diagnostics = None
    if exploration is not None:
        diagnostics = (
            [(sg.elements, sg.cost) for sg in exploration.subgraphs],
            exploration.cursors_created,
            exploration.cursors_popped,
            exploration.cursors_pruned,
            exploration.candidates_offered,
            exploration.terminated_by,
            exploration.max_queue_size,
        )
    return (
        [(c.cost, str(c.query), c.rank) for c in result.candidates],
        result.ignored_keywords,
        diagnostics,
    )


def _assert_identical(subject, oracle, queries):
    """The subject engine searches with the production loop, the oracle
    engine with the reference loop; neither caches across the pair, each
    engine has its own substrate."""
    for query in queries:
        got = _search_signature(subject.search(query))
        with reference_loop():
            expected = _search_signature(oracle.search(query))
        assert got == expected, f"divergence on {query!r}"


EXAMPLE_QUERIES = ["cimiano 2006", "aifb article", "cimiano aifb 2006"]
TAP_QUERIES = [
    "business",
    "music person",
    "sport location",
    "person company",
]


def test_example_dataset_identity():
    subject = KeywordSearchEngine(running_example_graph())
    oracle = KeywordSearchEngine(running_example_graph())
    _assert_identical(subject, oracle, EXAMPLE_QUERIES)


def test_tap_dataset_identity():
    graph = generate_tap(TapConfig(instances_per_class=6))
    subject = KeywordSearchEngine(graph, cost_model="c3", k=10)
    oracle = KeywordSearchEngine(graph, cost_model="c3", k=10)
    _assert_identical(subject, oracle, TAP_QUERIES)


def test_bundle_engine_identity(tmp_path):
    """An mmap-backed bundle engine must agree with an in-memory build."""
    build_engine = KeywordSearchEngine(running_example_graph())
    path = tmp_path / "example.reprobundle"
    build_engine.save(str(path))
    subject = KeywordSearchEngine.load(str(path))
    oracle = KeywordSearchEngine(running_example_graph())
    _assert_identical(subject, oracle, EXAMPLE_QUERIES)


# ----------------------------------------------------------------------
# Randomized graphs through the raw exploration entry point
# ----------------------------------------------------------------------


def _build_random_graph(n_vertices, edge_pairs):
    graph = SummaryGraph()
    keys = [
        graph.add_class_vertex(URI(f"c:{i}"), agg_count=1).key
        for i in range(n_vertices)
    ]
    for j, (a, b) in enumerate(edge_pairs):
        graph.add_edge(
            URI(f"e:{j}"),
            SummaryEdgeKind.RELATION,
            keys[a % n_vertices],
            keys[b % n_vertices],
        )
    return graph, keys


@st.composite
def exploration_cases(draw):
    n = draw(st.integers(min_value=2, max_value=8))
    n_edges = draw(st.integers(min_value=1, max_value=12))
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
    costs = draw(
        st.lists(
            st.sampled_from([0.25, 0.5, 1.0, 1.5, 2.0]),
            min_size=n + n_edges,
            max_size=n + n_edges,
        )
    )
    k = draw(st.integers(min_value=1, max_value=5))
    return n, edges, keyword_sets, costs, k


def _exploration_signature(result):
    return (
        [(sg.elements, sg.cost) for sg in result.subgraphs],
        result.cursors_created,
        result.cursors_popped,
        result.cursors_pruned,
        result.candidates_offered,
        result.terminated_by,
        result.max_queue_size,
    )


def _random_case(case):
    n, edges, keyword_indices, cost_choices, k = case
    graph, keys = _build_random_graph(n, edges)
    keyword_sets = [{keys[i] for i in indices} for indices in keyword_indices]
    elements = [v.key for v in graph.vertices] + [e.key for e in graph.edges]
    costs = {
        el: (cost_choices[i] if i < len(cost_choices) else 1.0)
        for i, el in enumerate(elements)
    }
    return AugmentedSummaryGraph(graph, keyword_sets, {}), costs, k


@given(exploration_cases())
@settings(max_examples=120, deadline=None)
def test_random_graph_exploration_identity(case):
    augmented, costs, k = _random_case(case)
    production = explore_top_k(augmented, costs, k=k, dmax=6)
    reference = reference_explore_top_k(augmented, costs, k=k, dmax=6)
    assert _exploration_signature(production) == _exploration_signature(reference)


# ----------------------------------------------------------------------
# Identity across incremental update batches
# ----------------------------------------------------------------------


def _paper_triple(i):
    person = URI(f"http://x.repro/person/p{i}")
    paper = URI(f"http://x.repro/paper/a{i}")
    return [
        Triple(person, RDF.type, URI("http://x.repro/cls/Researcher")),
        Triple(paper, RDF.type, URI("http://x.repro/cls/Article")),
        Triple(person, URI("http://x.repro/rel/author"), paper),
    ]


update_operations = st.lists(
    st.tuples(st.booleans(), st.integers(min_value=0, max_value=11)),
    min_size=1,
    max_size=6,
)


@given(operations=update_operations)
@settings(max_examples=25, deadline=None)
def test_identity_survives_update_batches(operations):
    """Apply the same add/remove batches to both engines of a pair; after
    every batch both must answer identically (each new summary version
    gets a fresh substrate, and with it fresh views and bound tables).
    Each engine gets its own graph instance — add/remove mutates the graph
    in place."""
    subject = KeywordSearchEngine(running_example_graph())
    oracle = KeywordSearchEngine(running_example_graph())
    for is_add, i in operations:
        batch = _paper_triple(i)
        if is_add:
            subject.add_triples(batch)
            oracle.add_triples(batch)
        else:
            subject.remove_triples(batch)
            oracle.remove_triples(batch)
        _assert_identical(subject, oracle, ["cimiano 2006", "researcher article"])
