"""Property test: the top-k guarantee of Algorithm 2 (Section VI-C).

The paper's central formal claim is that — unlike BANKS/bidirectional — the
exploration returns *exactly* the k minimal matching subgraphs.  We verify
it against a brute-force oracle: enumerate every simple path (≤ dmax
elements) from every keyword element, form every path combination at every
connecting element, deduplicate by element set, and take the k cheapest.
The exploration must report the same cost sequence.
"""

from itertools import product

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
    keys = [graph.add_class_vertex(URI(f"c:{i}"), agg_count=1).key for i in range(n_vertices)]
    for j, (a, b) in enumerate(edge_pairs):
        graph.add_edge(
            URI(f"e:{j}"), SummaryEdgeKind.RELATION, keys[a % n_vertices], keys[b % n_vertices]
        )
    return graph, keys


def enumerate_paths(graph, origin, costs, dmax):
    """All simple paths from `origin` as {tip: [(cost, frozenset elements)]}.

    Distance semantics mirror the exploration: a path of distance d has
    d+1 elements; paths up to distance dmax are usable.
    """
    out = {}
    stack = [(origin, costs[origin], (origin,))]
    while stack:
        tip, cost, path = stack.pop()
        out.setdefault(tip, []).append((cost, frozenset(path)))
        if len(path) - 1 >= dmax:
            continue
        parent = path[-2] if len(path) >= 2 else None
        for neighbor in graph.neighbors(tip):
            if neighbor == parent or neighbor in path:
                continue
            stack.append((neighbor, cost + costs[neighbor], path + (neighbor,)))
    return out


def oracle_top_k(graph, keyword_sets, costs, k, dmax):
    """Brute-force k cheapest matching subgraphs (as sorted costs)."""
    per_keyword = []
    for elements in keyword_sets:
        merged = {}
        for origin in elements:
            for tip, paths in enumerate_paths(graph, origin, costs, dmax).items():
                merged.setdefault(tip, []).extend(paths)
        per_keyword.append(merged)

    best_by_set = {}
    common = set(per_keyword[0])
    for table in per_keyword[1:]:
        common &= set(table)
    for element in common:
        path_lists = [table[element] for table in per_keyword]
        for combo in product(*path_lists):
            elements = frozenset().union(*(p[1] for p in combo))
            cost = sum(p[0] for p in combo)
            if cost < best_by_set.get(elements, float("inf")):
                best_by_set[elements] = cost
    return sorted(best_by_set.values())[:k]


@st.composite
def exploration_cases(draw):
    n = draw(st.integers(min_value=2, max_value=6))
    n_edges = draw(st.integers(min_value=1, max_value=8))
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
    k = draw(st.integers(min_value=1, max_value=4))
    return n, edges, keyword_sets, cost_choices, k


@given(exploration_cases(), st.booleans())
@settings(max_examples=150, deadline=None)
def test_exploration_matches_oracle(case, guided):
    n, edges, keyword_indices, cost_choices, k = case
    graph, keys = build_random_graph(n, edges)
    keyword_sets = [{keys[i] for i in indices} for indices in keyword_indices]

    costs = {}
    elements = [v.key for v in graph.vertices] + [e.key for e in graph.edges]
    for element, cost in zip(elements, cost_choices):
        costs[element] = cost
    for element in elements[len(cost_choices):]:  # pragma: no cover - safety
        costs[element] = 1.0

    dmax = 6
    augmented = AugmentedSummaryGraph(graph, [set(ks) for ks in keyword_sets], {})
    if guided:
        result = explore_top_k(augmented, costs, k=k, dmax=dmax)
    else:
        result = reference_explore_top_k(
            augmented, costs, k=k, dmax=dmax, guided=False
        )
    got = [sg.cost for sg in result.subgraphs]

    expected = oracle_top_k(graph, keyword_sets, costs, k, dmax)

    assert len(got) == len(expected)
    for g, e in zip(got, expected):
        assert g == pytest.approx(e), (got, expected)


@given(exploration_cases())
@settings(max_examples=60, deadline=None)
def test_results_are_valid_matching_subgraphs(case):
    """Definition 6 invariants: every result contains a representative per
    keyword and is connected."""
    n, edges, keyword_indices, cost_choices, k = case
    graph, keys = build_random_graph(n, edges)
    keyword_sets = [{keys[i] for i in indices} for indices in keyword_indices]
    elements = [v.key for v in graph.vertices] + [e.key for e in graph.edges]
    costs = {el: (cost_choices[i] if i < len(cost_choices) else 1.0)
             for i, el in enumerate(elements)}

    augmented = AugmentedSummaryGraph(graph, [set(ks) for ks in keyword_sets], {})
    result = explore_top_k(augmented, costs, k=k, dmax=6)

    for sg in result.subgraphs:
        # Representative per keyword.
        for ks in keyword_sets:
            assert sg.elements & ks
        # Connectivity over the element-neighborhood relation.
        members = set(sg.elements)
        start = next(iter(members))
        seen = {start}
        stack = [start]
        while stack:
            current = stack.pop()
            for neighbor in graph.neighbors(current):
                if neighbor in members and neighbor not in seen:
                    seen.add(neighbor)
                    stack.append(neighbor)
        assert seen == members, "subgraph not connected"


@given(exploration_cases())
@settings(max_examples=60, deadline=None)
def test_costs_ascending_and_bounded_by_k(case):
    n, edges, keyword_indices, cost_choices, k = case
    graph, keys = build_random_graph(n, edges)
    keyword_sets = [{keys[i] for i in indices} for indices in keyword_indices]
    elements = [v.key for v in graph.vertices] + [e.key for e in graph.edges]
    costs = {el: (cost_choices[i] if i < len(cost_choices) else 1.0)
             for i, el in enumerate(elements)}

    augmented = AugmentedSummaryGraph(graph, [set(ks) for ks in keyword_sets], {})
    result = explore_top_k(augmented, costs, k=k, dmax=6)
    assert len(result.subgraphs) <= k
    got = [sg.cost for sg in result.subgraphs]
    assert got == sorted(got)
    # Distinct element sets.
    sets = [sg.elements for sg in result.subgraphs]
    assert len(sets) == len(set(sets))
