"""PageRank over the summary graph, as an alternative popularity signal.

Section V notes that "PageRank can also be used in this context" but that the
aggregation-count metric is cheaper to compute for the summary graph.  This
module provides both the standalone power-iteration PageRank and a cost
model derived from it, enabling the ablation benchmark that compares the two
popularity signals.
"""

from __future__ import annotations

from typing import Dict, Hashable

from repro.scoring.cost import MIN_COST, CostModel
from repro.summary.augmentation import AugmentedSummaryGraph
from repro.summary.summary_graph import SummaryGraph


#: The standard damping factor, iteration cap and convergence tolerance.
DAMPING = 0.85
MAX_ITERATIONS = 100
TOLERANCE = 1e-9


def pagerank(graph: SummaryGraph) -> Dict[Hashable, float]:
    """Power-iteration PageRank over the summary graph's vertices.

    Edges are followed from source to target; dangling mass is redistributed
    uniformly, the standard treatment.  Vertices and edges are summed in
    canonical (``repr``) order, the substrate's, so the ranks are the same
    bits whatever order the graph was built or maintained in.
    """
    vertices = sorted((v.key for v in graph.vertices), key=repr)
    if not vertices:
        return {}
    n = len(vertices)
    out_edges: Dict[Hashable, list] = {key: [] for key in vertices}
    for edge in sorted(graph.edges, key=lambda e: repr(e.key)):
        out_edges[edge.source_key].append(edge.target_key)

    rank = {key: 1.0 / n for key in vertices}
    for _ in range(MAX_ITERATIONS):
        dangling_mass = sum(rank[k] for k in vertices if not out_edges[k])
        next_rank = {
            key: (1.0 - DAMPING) / n + DAMPING * dangling_mass / n for key in vertices
        }
        for key in vertices:
            targets = out_edges[key]
            if not targets:
                continue
            share = DAMPING * rank[key] / len(targets)
            for target in targets:
                next_rank[target] += share
        delta = sum(abs(next_rank[k] - rank[k]) for k in vertices)
        rank = next_rank
        if delta < TOLERANCE:
            break
    return rank


class PageRankCost(CostModel):
    """Vertex cost ``1 − PR(v)/max PR``; edges cost the mean of endpoints.

    Ranks are computed per augmented graph (augmentation adds vertices), so
    this model is strictly more expensive than C2 — which is the trade-off
    the paper's Section V remark is about.  They are a pure function of
    that graph, so a query whose plan is still cached does not rank again.
    """

    name = "pagerank"

    def compute_costs(self, augmented: AugmentedSummaryGraph) -> Dict[Hashable, float]:
        ranks = pagerank(augmented.graph)
        top = max(ranks.values(), default=1.0) or 1.0
        costs: Dict[Hashable, float] = {}
        for vertex in augmented.graph.vertices:
            costs[vertex.key] = max(MIN_COST, 1.0 - ranks[vertex.key] / top)
        for edge in augmented.graph.edges:
            source_cost = costs[edge.source_key]
            target_cost = costs[edge.target_key]
            costs[edge.key] = max(MIN_COST, (source_cost + target_cost) / 2.0)
        return costs

    def vertex_cost(self, vertex, augmented):  # pragma: no cover - unused path
        raise NotImplementedError("PageRankCost computes costs graph-wide")

    def edge_cost(self, edge, augmented):  # pragma: no cover - unused path
        raise NotImplementedError("PageRankCost computes costs graph-wide")
