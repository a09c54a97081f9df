"""Unit tests for the version-keyed exploration substrate and the id
space of a plan's view."""

import pytest

from reference_exploration import intern_view

from repro.core.engine import KeywordSearchEngine
from repro.core.exploration import explore_top_k
from repro.datasets import running_example_graph
from repro.rdf.terms import URI, Literal
from repro.summary.augmentation import AugmentedSummaryGraph, augment
from repro.summary.elements import SummaryEdgeKind
from repro.summary.overlay import OverlaySummaryGraph
from repro.summary.substrate import (
    ExplorationSubstrate,
    _build_substrate_view,
    checked_cost,
)
from repro.summary.summary_graph import SummaryGraph


def line_graph(n=4):
    graph = SummaryGraph()
    keys = [graph.add_class_vertex(URI(f"c:{i}"), agg_count=1).key for i in range(n)]
    edges = [
        graph.add_edge(
            URI(f"e:{i}"), SummaryEdgeKind.RELATION, keys[i], keys[i + 1]
        ).key
        for i in range(n - 1)
    ]
    return graph, keys, edges


class TestCaching:
    def test_substrate_cached_per_version(self):
        graph, keys, _ = line_graph()
        first = graph.exploration_substrate()
        assert graph.exploration_substrate() is first

    def test_mutation_invalidates_substrate(self):
        graph, keys, _ = line_graph()
        first = graph.exploration_substrate()
        graph.add_edge(URI("e:new"), SummaryEdgeKind.RELATION, keys[0], keys[2])
        second = graph.exploration_substrate()
        assert second is not first
        assert len(second.keys) == len(first.keys) + 1


class TestStructure:
    def test_keys_in_canonical_order(self):
        graph, _, _ = line_graph()
        substrate = graph.exploration_substrate()
        assert list(substrate.keys) == sorted(substrate.keys, key=repr)
        assert substrate.reprs == sorted(substrate.reprs)

    def test_rows_match_graph_neighbors(self):
        graph, _, _ = line_graph(5)
        substrate = graph.exploration_substrate()
        assert len(substrate.rows) == len(substrate.keys)
        for key, element_id in substrate.ids.items():
            expected = sorted(substrate.ids[nb] for nb in graph.neighbors(key))
            assert substrate.rows[element_id] == tuple(expected)

    def test_size_and_repr(self):
        graph, _, _ = line_graph()
        substrate = graph.exploration_substrate()
        assert len(substrate.keys) == len(graph)
        assert "ExplorationSubstrate" in repr(substrate)


class TestViewCosts:
    def test_view_costs_read_through_the_mapping(self):
        """A plan without overlay elements shares the substrate's tables,
        and its costs are the mapping's, in id order."""
        graph, keys, _ = line_graph()
        substrate = graph.exploration_substrate()
        augmented = AugmentedSummaryGraph(graph, [{keys[0]}], {})
        table = {key: float(i + 1) for i, key in enumerate(substrate.keys)}
        view = _build_substrate_view(augmented, table)
        assert view.keys is substrate.keys and view.rows is substrate.rows
        assert view.costs == [table[key] for key in substrate.keys]

    def test_view_cached_by_memoized_costs_identity(self):
        """The view of the costs a plan memoized is kept on the plan; any
        other mapping, even an equal copy, gets a view of its own."""
        graph, keys, _ = line_graph()
        augmented = AugmentedSummaryGraph(graph, [{keys[0]}], {})
        table = {key: 1.0 for key in graph.exploration_substrate().keys}
        augmented.cost_memo["model"] = table
        first = _build_substrate_view(augmented, table)
        assert _build_substrate_view(augmented, table) is first
        assert _build_substrate_view(augmented, dict(table)) is not first

    def test_missing_cost_raises_key_error(self):
        graph, keys, _ = line_graph()
        augmented = AugmentedSummaryGraph(graph, [{keys[0]}, {keys[3]}], {})
        with pytest.raises(KeyError, match="no cost assigned"):
            explore_top_k(augmented, {}, k=1)

    def test_non_positive_cost_rejected(self):
        graph, keys, _ = line_graph()
        augmented = AugmentedSummaryGraph(graph, [{keys[0]}, {keys[3]}], {})
        table = dict.fromkeys(graph.exploration_substrate().keys, 1.0)
        table[keys[1]] = 0.0
        with pytest.raises(ValueError, match="must be positive"):
            explore_top_k(augmented, table, k=1)

    def test_checked_cost_passthrough(self):
        assert checked_cost("x", 0.5) == 0.5


def _value_match(value="v"):
    from repro.keyword.keyword_index import ValueMatch

    return ValueMatch(Literal(value), frozenset([(URI("a:attr"), URI("c:0"))]), 1.0)


class TestPlanCache:
    def test_plan_served_only_for_the_same_match_objects(self):
        """A plan is keyed by the match objects themselves: the same
        objects (in a new list) are a hit, fresh matches with equal
        content are a miss and a plan of their own."""
        graph, _, _ = line_graph()
        substrate = graph.exploration_substrate()
        match = _value_match()
        first = augment(graph, [[match]])
        assert augment(graph, [[match]]) is first
        twin = augment(graph, [[_value_match()]])
        assert twin is not first
        assert twin.graph.added_element_keys() == first.graph.added_element_keys()
        assert (substrate.plans.hits, substrate.plans.misses) == (1, 2)
        assert len(substrate.plans) == 2

    def test_plan_lru_is_bounded(self):
        graph, _, _ = line_graph()
        substrate = graph.exploration_substrate()
        for i in range(substrate.MAX_PLANS + 5):
            augment(graph, [[_value_match(f"v{i}")]])
        assert len(substrate.plans) == substrate.MAX_PLANS


class TestExplorationIntegration:
    """Exploration over a warm (cached plan) substrate against the
    same exploration over a second, freshly built ``SummaryGraph``."""

    def _costs(self, graph):
        out = {v.key: 1.0 for v in graph.vertices}
        out.update({e.key: 1.0 for e in graph.edges})
        return out

    def test_force_substrate_matches_reference(self):
        graph, keys, edges = line_graph(4)
        augmented = AugmentedSummaryGraph(graph, [{keys[0]}, {keys[3]}], {})
        costs = self._costs(graph)
        explore_top_k(augmented, costs, k=3)  # warm the substrate
        a = explore_top_k(augmented, costs, k=3)
        fresh, _, _ = line_graph(4)
        b = explore_top_k(
            AugmentedSummaryGraph(fresh, [{keys[0]}, {keys[3]}], {}),
            self._costs(fresh),
            k=3,
        )
        assert [sg.elements for sg in a.subgraphs] == [sg.elements for sg in b.subgraphs]
        assert [sg.paths for sg in a.subgraphs] == [sg.paths for sg in b.subgraphs]

    def test_layered_cost_mapping_reads_through(self):
        """A two-layer ChainMap whose base holds a non-positive entry that
        the top layer rescores positive must succeed: the view reads every
        cost through the mapping, like the flat table it amounts to."""
        from collections import ChainMap

        graph, keys, _ = line_graph(3)
        base = self._costs(graph)
        base[keys[1]] = -5.0
        costs = ChainMap({keys[1]: 2.0}, base)
        augmented = AugmentedSummaryGraph(graph, [{keys[0]}, {keys[2]}], {})
        a = explore_top_k(augmented, costs, k=2)
        fresh, _, _ = line_graph(3)
        b = explore_top_k(
            AugmentedSummaryGraph(fresh, [{keys[0]}, {keys[2]}], {}),
            dict(costs),
            k=2,
        )
        assert [sg.cost for sg in a.subgraphs] == [sg.cost for sg in b.subgraphs]
        assert a.subgraphs

    def test_graph_without_substrate_is_rejected(self):
        class Fake:
            vertices = ()
            edges = ()

            def neighbors(self, key):  # pragma: no cover - never reached
                return ()

        augmented = AugmentedSummaryGraph(Fake(), [{"a"}], {})
        with pytest.raises(ValueError, match="exploration requires a summary graph"):
            explore_top_k(augmented, {"a": 1.0}, k=1)

    def test_overlay_elements_leave_the_substrate_unmutated(self):
        """A query whose matches add overlay elements explores identically
        through the substrate, and the base substrate stays unmutated."""
        from repro.keyword.keyword_index import ValueMatch

        graph, keys, _ = line_graph(3)
        substrate = graph.exploration_substrate()
        n_before = len(substrate.keys)
        rows_before = list(substrate.rows)

        match = ValueMatch(
            Literal("v"), frozenset([(URI("a:attr"), URI("c:0"))]), 1.0
        )
        # Class term URI("c:0") exists: line_graph uses ("class", URI("c:0")).
        augmented = augment(graph, [[match]])
        assert isinstance(augmented.graph, OverlaySummaryGraph)
        added = augmented.graph.added_element_keys()
        assert added  # V-vertex + A-edge live in the overlay
        costs = dict.fromkeys(
            [v.key for v in augmented.graph.vertices]
            + [e.key for e in augmented.graph.edges],
            1.0,
        )
        a = explore_top_k(augmented, costs, k=2)
        fresh, _, _ = line_graph(3)
        b = explore_top_k(augment(fresh, [[match]]), costs, k=2)
        assert a.subgraphs
        assert [sg.elements for sg in a.subgraphs] == [sg.elements for sg in b.subgraphs]
        assert graph.exploration_substrate() is substrate
        assert len(substrate.keys) == n_before
        assert substrate.rows == rows_before


#: Queries whose plans add value vertices and A-edges to the summary.
VIEW_QUERIES = {
    "example": ["cimiano 2006", "aifb article", "cimiano aifb 2006", "x-media"],
    "dblp": ["cimiano 2006", "semantic search 2005", "thanh tran aifb"],
}


@pytest.mark.parametrize("dataset", sorted(VIEW_QUERIES))
def test_view_is_the_from_scratch_interning(dataset, dblp_small):
    """A plan's view numbers its elements exactly as interning the
    augmented graph from scratch does (``reference_exploration``'s
    :func:`intern_view`): same keys in the same order, same rows, same
    costs.  Overlay elements take their canonical ranks among the base
    elements, not ids after them."""
    graph = running_example_graph() if dataset == "example" else dblp_small
    engine = KeywordSearchEngine(graph)
    interleaved = 0
    for query in VIEW_QUERIES[dataset]:
        matches = [m for m in engine.keyword_index.lookup_all(query.split()) if m]
        augmented = augment(engine.summary, matches)
        assert isinstance(augmented.graph, OverlaySummaryGraph), query
        added = augmented.graph.added_element_keys()
        assert any(key[0] == "value" for key in added), query
        assert any(key[0] == "edge" for key in added), query
        costs = engine.cost_model.element_costs(augmented)
        view = _build_substrate_view(augmented, costs)
        fresh = intern_view(augmented, costs)
        assert list(view.keys) == fresh.keys, query
        assert view.ids == fresh.ids, query
        assert [list(row) for row in view.rows] == fresh.rows, query
        assert view.costs == fresh.costs, query
        assert view.total == len(fresh.keys), query
        first_added = min(view.ids[key] for key in added)
        interleaved += first_added < len(view.keys) - len(added)
    assert interleaved, "no plan put an overlay element before a base element"
