"""Element-cost models C1, C2, C3 (Section V).

Each model maps every element of an augmented summary graph to a positive
cost.  Exploration and top-k only require that costs are positive and that
graph cost aggregates monotonically — which a sum of positive path costs
guarantees — so all models plug into the same Algorithm 1/2 machinery.

Normalization note (documented deviation, docs/architecture.md
"Documented deviations"): the paper divides |v_agg| by "the total number
of vertices in the summary graph", which can produce negative costs.  We
divide by the number of aggregated *data* elements (entities for
vertices, R-edges for edges), keeping costs in (0, 1] while preserving
the intent that more-representative elements are cheaper.  The paper's
literal formula is not offered.
"""

from __future__ import annotations

import weakref
from typing import Dict, Hashable, Mapping

from repro.summary.augmentation import AugmentedSummaryGraph
from repro.summary.elements import (
    SummaryEdge,
    SummaryEdgeKind,
    SummaryVertex,
    SummaryVertexKind,
    is_edge_key,
)

#: Elements never cost less than this — keeps Theorem 1's strictly-positive
#: path-cost growth and avoids zero-cost cycles.
MIN_COST = 0.01

#: C3's floor on a matching score, so a near-zero score cannot blow a
#: keyword element's cost up without bound.
MIN_SCORE = 1e-3


class CostModel:
    """Base: assigns ``cost(n) > 0`` to every element of an augmented graph.

    When the augmented graph is an overlay view, base-graph element costs
    are query-invariant for most models (C1, C2, and C3 away from matched
    elements), so they are computed once and cached; per query only the
    overlay-added elements and the keyword-matched elements get fresh
    costs, merged into a copy of the cached table: one plain dict per plan.
    The cache keys on the base graph's mutation ``version``, so incremental
    index maintenance invalidates it automatically.

    A model's costs are a pure function of the augmented graph, so
    :meth:`element_costs` keeps them on it, per model
    (:attr:`~repro.summary.augmentation.AugmentedSummaryGraph.cost_memo`):
    a query whose plan is still in the plan LRU costs nothing to score.
    A model computes them in :meth:`compute_costs`.
    """

    name = "abstract"

    def element_costs(self, augmented: AugmentedSummaryGraph) -> Mapping[Hashable, float]:
        """Cost for every element key in the augmented graph (memoized on
        the graph; callers must not mutate the returned mapping)."""
        costs = augmented.cost_memo.get(self)
        if costs is None:
            # Racing first calls agree on whichever result landed first.
            costs = augmented.cost_memo.setdefault(self, self.compute_costs(augmented))
        return costs

    def compute_costs(self, augmented: AugmentedSummaryGraph) -> Dict[Hashable, float]:
        """:meth:`element_costs` without the memo."""
        graph = augmented.graph
        base = getattr(graph, "base", None)
        if base is None:
            costs: Dict[Hashable, float] = {}
            for vertex in graph.vertices:
                costs[vertex.key] = self.vertex_cost(vertex, augmented)
            for edge in graph.edges:
                costs[edge.key] = self.edge_cost(edge, augmented)
            return costs

        base_costs = self._cached_base_costs(base)
        overrides: Dict[Hashable, float] = {}
        for vertex in graph.added_vertices:
            overrides[vertex.key] = self.vertex_cost(vertex, augmented)
        for edge in graph.added_edges:
            overrides[edge.key] = self.edge_cost(edge, augmented)
        # Matched base elements may be rescored (C3 divides by sm(n)).
        for key in augmented.match_scores:
            if key in overrides:
                continue
            if is_edge_key(key):
                overrides[key] = self.edge_cost(graph.edge(key), augmented)
            else:
                overrides[key] = self.vertex_cost(graph.vertex(key), augmented)
        return {**base_costs, **overrides}

    def _cached_base_costs(self, base) -> Dict[Hashable, float]:
        cached = getattr(self, "_base_cost_cache", None)
        if cached is not None:
            graph_ref, version, costs = cached
            if graph_ref() is base and version == base.version:
                return costs
        # Score-neutral view: base elements carry no keyword matches.
        neutral = AugmentedSummaryGraph(base, [], {})
        costs = {}
        for vertex in base.vertices:
            costs[vertex.key] = self.vertex_cost(vertex, neutral)
        for edge in base.edges:
            costs[edge.key] = self.edge_cost(edge, neutral)
        self._base_cost_cache = (weakref.ref(base), base.version, costs)
        return costs

    def vertex_cost(self, vertex: SummaryVertex, augmented: AugmentedSummaryGraph) -> float:
        raise NotImplementedError

    def edge_cost(self, edge: SummaryEdge, augmented: AugmentedSummaryGraph) -> float:
        raise NotImplementedError


class PathLengthCost(CostModel):
    """C1: the cost of an element is simply one — graph cost is total path
    length."""

    name = "c1"

    def vertex_cost(self, vertex, augmented) -> float:
        return 1.0

    def edge_cost(self, edge, augmented) -> float:
        return 1.0


class PopularityCost(CostModel):
    """C2: ``c(v) = 1 − |v_agg|/|V|`` and ``c(e) = 1 − |e_agg|/|E|``.

    Popular summary elements (aggregating many data elements) are cheaper,
    steering the exploration toward structures that many data instances
    support.  Augmentation-time elements (value vertices, A-edges) have no
    aggregation semantics in the paper's formula and cost 1.
    """

    name = "c2"

    def vertex_cost(self, vertex, augmented) -> float:
        if vertex.kind in (SummaryVertexKind.VALUE, SummaryVertexKind.ARTIFICIAL):
            return 1.0
        total = max(augmented.graph.total_entities, 1)
        return max(MIN_COST, 1.0 - vertex.agg_count / total)

    def edge_cost(self, edge, augmented) -> float:
        if edge.kind is not SummaryEdgeKind.RELATION:
            return 1.0
        total = max(augmented.graph.total_relation_edges, 1)
        return max(MIN_COST, 1.0 - edge.agg_count / total)


class KeywordMatchCost(PopularityCost):
    """C3: ``c(n) / sm(n)`` — C2's cost divided by the matching score.

    ``sm(n) ∈ (0, 1]`` for keyword elements and 1 otherwise, so well-matching
    keyword elements get cheaper relative to poorly matching ones while
    non-keyword elements keep their C2 cost — the paper's presentation of
    C3 as a refinement of C2.
    """

    name = "c3"

    def vertex_cost(self, vertex, augmented) -> float:
        base = super().vertex_cost(vertex, augmented)
        return base / self._score(vertex.key, augmented)

    def edge_cost(self, edge, augmented) -> float:
        base = super().edge_cost(edge, augmented)
        return base / self._score(edge.key, augmented)

    def _score(self, key: Hashable, augmented: AugmentedSummaryGraph) -> float:
        return max(MIN_SCORE, augmented.matching_score(key))


def make_cost_model(name: str) -> CostModel:
    """Factory for the model names used throughout benchmarks and the CLI.

    >>> make_cost_model("c1").name
    'c1'
    """
    try:
        factory = COST_MODELS[name.lower()]
    except KeyError:
        raise ValueError(
            f"unknown cost model {name!r}; choose from {sorted(COST_MODELS)}"
        ) from None
    return factory()


def _make_pagerank():
    from repro.scoring.pagerank import PageRankCost

    return PageRankCost()


COST_MODELS = {
    "c1": PathLengthCost,
    "c2": PopularityCost,
    "c3": KeywordMatchCost,
    "pagerank": _make_pagerank,
}
