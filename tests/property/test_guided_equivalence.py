"""Property: guided and unguided exploration return identical results.

The exploration (the Section VI-A/IX "indexing connectivity" speed-up)
prunes cursors through admissible completion bounds; because the bounds
only ever *under*estimate, pruning may change the work but never the
answer.  On randomized graphs, keyword sets, costs, and k, it must return
the same ranked sequence of subgraph element sets with the same costs as
the unbounded loop of ``tests/reference_exploration.py`` (``guided=False``)
— not just the same cost multiset (complements
``benchmarks/test_ablation_guarantee.py``, which measures the work
difference on the paper workloads).
"""

import pytest
from hypothesis import given, settings, strategies as st
from reference_exploration import explore_top_k as reference_explore_top_k

from repro.core.exploration import explore_top_k
from repro.rdf.terms import URI
from repro.summary.augmentation import AugmentedSummaryGraph
from repro.summary.elements import SummaryEdgeKind
from repro.summary.summary_graph import SummaryGraph


def build_random_graph(n_vertices, edge_pairs):
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


def _signature(result):
    return [(sg.elements, pytest.approx(sg.cost)) for sg in result.subgraphs]


@given(exploration_cases())
@settings(max_examples=150, deadline=None)
def test_guided_and_unguided_return_identical_results(case):
    n, edges, keyword_indices, cost_choices, k = case
    graph, keys = build_random_graph(n, edges)
    keyword_sets = [{keys[i] for i in indices} for indices in keyword_indices]

    elements = [v.key for v in graph.vertices] + [e.key for e in graph.edges]
    costs = {
        el: (cost_choices[i] if i < len(cost_choices) else 1.0)
        for i, el in enumerate(elements)
    }

    augmented = AugmentedSummaryGraph(graph, [set(ks) for ks in keyword_sets], {})
    plain = reference_explore_top_k(augmented, costs, k=k, dmax=6, guided=False)
    guided = explore_top_k(augmented, costs, k=k, dmax=6, guided=True)

    assert _signature(guided) == _signature(plain)
    # The bounds only ever take cursors away: a child the unbounded run
    # refuses (k paths already registered at its target) is refused by the
    # bounded run too, by the same rule or — when the bound kept those
    # paths from registering — by the bound itself.
    assert guided.cursors_created <= plain.cursors_created


def test_bound_is_applied_before_a_cursor_is_created():
    """A star: keyword 0 on the hub, keyword 1 on one of six leaves, unit
    costs, k=1.  The only subgraph (hub - edge - leaf, cost 4) is complete
    once both cursors of cost 2 are popped.  Keyword 1's cursor at the hub
    (cost 3) then still beats the bound and registers, but none of its
    five children towards the other leaves (cost 4 each) can complete
    below 4: they are counted as pruned and never get a cursor — a check
    at pop time only would have created all five first."""
    graph = SummaryGraph()
    hub = graph.add_class_vertex(URI("c:hub"), agg_count=1).key
    leaves = [
        graph.add_class_vertex(URI(f"c:leaf{i}"), agg_count=1).key for i in range(6)
    ]
    for i, leaf in enumerate(leaves):
        graph.add_edge(URI(f"e:{i}"), SummaryEdgeKind.RELATION, hub, leaf)
    costs = {el.key: 1.0 for el in list(graph.vertices) + list(graph.edges)}
    augmented = AugmentedSummaryGraph(graph, [{hub}, {leaves[0]}], {})

    plain = reference_explore_top_k(augmented, costs, k=1, guided=False)
    guided = explore_top_k(augmented, costs, k=1, guided=True)

    assert _signature(guided) == _signature(plain)
    assert [sg.cost for sg in guided.subgraphs] == [4.0]
    assert plain.cursors_created == 26
    # 2 origins + the 4 children along hub - e:0 - leaf0 (two per
    # keyword).  The run starts with the threshold read off the distance
    # tables — the star's one witness, cost 4 — so keyword 0's five
    # children towards the other leaves (cost 2, cheapest completion 3)
    # are refused at the first pop, before any candidate exists, and
    # keyword 1's five at the hub (cost 4, completion 1) as before: ten
    # pruned, none created.
    assert guided.cursors_created == 6 < plain.cursors_created
    assert guided.cursors_popped == 6
    assert guided.cursors_pruned == 10
    assert guided.seed_threshold == 4.0 * (1 + 1e-9) and not guided.seed_fallback
    # Without the seed the bounds alone give the former pin: 2 origins +
    # 14 children pushed while no candidate existed yet; the five children
    # of keyword 1's hub cursor are the difference to a pop-time-only
    # check (21).
    unseeded = reference_explore_top_k(
        augmented, costs, k=1, guided=True, threshold=float("inf")
    )
    assert _signature(unseeded) == _signature(plain)
    assert unseeded.cursors_created == 16 and unseeded.cursors_popped == 16
