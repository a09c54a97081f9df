"""Unit tests for distance-guided exploration (the 'indexing connectivity'
speed-up of Sections VI-A and IX), against the unbounded loop of
``tests/reference_exploration.py``."""

import pytest
from reference_exploration import explore_top_k as reference_explore_top_k
from reference_exploration import reference_loop

from repro.core.exploration import explore_top_k
from repro.rdf.terms import URI
from repro.summary.augmentation import AugmentedSummaryGraph
from repro.summary.elements import SummaryEdgeKind
from repro.summary.substrate import _dijkstra_rows
from repro.summary.summary_graph import SummaryGraph

from tests.unit.test_exploration import (
    augmented_for,
    build_line_graph,
    uniform_costs,
)


class TestDijkstra:
    def test_line_distances(self):
        # 0 -1- 2 -3- 4 (indices); costs all 1.
        neighbors = [[1], [0, 2], [1, 3], [2, 4], [3]]
        costs = [1.0] * 5
        dist = _dijkstra_rows({0: 1.0}, neighbors.__getitem__, costs, 5)
        assert dist == [1.0, 2.0, 3.0, 4.0, 5.0]

    def test_multi_source_takes_minimum(self):
        neighbors = [[1], [0, 2], [1]]
        costs = [1.0, 1.0, 1.0]
        dist = _dijkstra_rows({0: 1.0, 2: 0.5}, neighbors.__getitem__, costs, 3)
        assert dist == [1.0, 1.5, 0.5]

    def test_unreachable_infinite(self):
        dist = _dijkstra_rows({0: 1.0}, [[], []].__getitem__, [1.0, 1.0], 2)
        assert dist[1] == float("inf")

    def test_empty_seeds(self):
        assert _dijkstra_rows({}, [[], []].__getitem__, [1.0, 1.0], 2) == [float("inf")] * 2


class TestGuidedEquivalence:
    def test_same_results_on_line(self):
        graph, keys, _ = build_line_graph(6)
        augmented = augmented_for(graph, [[keys[0]], [keys[5], keys[2]]])
        costs = uniform_costs(graph)
        plain = reference_explore_top_k(augmented, costs, k=5, guided=False)
        guided = explore_top_k(augmented, costs, k=5, guided=True)
        assert [sg.cost for sg in plain.subgraphs] == [
            sg.cost for sg in guided.subgraphs
        ]

    def test_same_results_with_varied_costs(self):
        graph, keys, edges = build_line_graph(5)
        costs = uniform_costs(graph)
        costs[keys[2]] = 0.3
        costs[edges[1]] = 2.0
        augmented = augmented_for(graph, [[keys[0]], [keys[4]]])
        plain = reference_explore_top_k(augmented, costs, k=3, guided=False)
        guided = explore_top_k(augmented, costs, k=3, guided=True)
        assert [sg.elements for sg in plain.subgraphs] == [
            sg.elements for sg in guided.subgraphs
        ]

    def test_guided_prunes_more(self):
        # A long dead-end branch the guided run should not chase.
        graph = SummaryGraph()
        keys = [graph.add_class_vertex(URI(f"c:{i}")).key for i in range(10)]
        for i in range(9):
            graph.add_edge(URI(f"e:{i}"), SummaryEdgeKind.RELATION, keys[i], keys[i + 1])
        costs = uniform_costs(graph)
        augmented = augmented_for(graph, [[keys[0]], [keys[2]]])
        plain = reference_explore_top_k(augmented, costs, k=1, guided=False)
        guided = explore_top_k(augmented, costs, k=1, guided=True)
        assert guided.cursors_popped <= plain.cursors_popped
        assert [sg.cost for sg in guided.subgraphs] == [
            sg.cost for sg in plain.subgraphs
        ]

    def test_guided_engine_matches_plain_engine(self, example_graph):
        from repro.core.engine import KeywordSearchEngine

        plain = KeywordSearchEngine(example_graph, cost_model="c3", k=5)
        guided = KeywordSearchEngine(
            example_graph,
            cost_model="c3",
            k=5,
            guided=True,
            summary=plain.summary,
            keyword_index=plain.keyword_index,
        )
        for query in ("2006 cimiano aifb", "aifb 2006", "publication cimiano"):
            with reference_loop(guided=False):
                a = plain.search(query)
            b = guided.search(query)
            assert [round(c.cost, 9) for c in a] == [round(c.cost, 9) for c in b]
