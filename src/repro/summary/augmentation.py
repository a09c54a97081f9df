"""Query-time augmentation of the summary graph (Definition 5).

Given the per-keyword match sets from the keyword index, the summary graph
is extended with

* one V-vertex plus ``A-edge(C-vertex_i, V-vertex)`` edges for every
  keyword-matching value, and
* one artificial ``value`` node plus ``A-edge(C-vertex, value)`` edges for
  every keyword-matching A-edge label,

using the ``[V-vertex, A-edge, (C-vertex_1..n)]`` neighbor structures the
index returns.  The result also records, per keyword, the set of
*representative elements* (the K_i of Algorithm 1) and, per element, the
matching score ``sm(n)`` consumed by the C3 cost function.

The extension is **zero-copy**: instead of duplicating the summary graph per
query, the added vertices and edges are layered onto the shared base graph
through an :class:`~repro.summary.overlay.OverlaySummaryGraph` view, so
augmentation allocates work proportional to the number of keyword matches,
not to |summary graph|.  The base graph is never mutated.

Augmentation is also where a query's **plan** starts: the augmented graph
is a pure function of the summary version and the keyword matches, so
:func:`augment` keeps it in the version-keyed substrate's plan LRU, keyed
by the match objects, and the stages after it keep what they derive from
it on it (:attr:`AugmentedSummaryGraph.cost_memo`,
:attr:`AugmentedSummaryGraph.view_memo`, and the finished searches of
:attr:`AugmentedSummaryGraph.results`).  A plan is never invalidated: it
dies with the substrate when the summary version moves, and a keyword
whose lookup is recomputed comes back as new match objects — a new key.
"""

from __future__ import annotations

from typing import Dict, Hashable, List, Mapping, Optional, Sequence, Set, Tuple

from repro.keyword.keyword_index import (
    AttributeMatch,
    ClassMatch,
    KeywordMatch,
    RelationMatch,
    ValueMatch,
)
from repro.summary.elements import SummaryEdgeKind
from repro.summary.overlay import OverlaySummaryGraph
from repro.summary.summary_graph import SummaryGraph
from repro.util import LruDict


class AugmentedSummaryGraph:
    """A summary graph plus keyword elements and their matching scores.

    Attributes
    ----------
    graph:
        The augmented graph — normally an
        :class:`~repro.summary.overlay.OverlaySummaryGraph` view sharing the
        base summary graph (which is never mutated).
    keyword_elements:
        ``keyword_elements[i]`` is the set of element keys representing
        keyword *i* — the exploration's starting set K_i.
    match_scores:
        element key → best ``sm(n)`` over all keywords that matched it;
        elements absent from the map score 1 (Section V).
    cost_memo:
        cost model → the element costs it assigned this graph
        (:meth:`~repro.scoring.cost.CostModel.element_costs`).
    view_memo:
        ``id(costs)`` → ``(costs, view)``: the exploration's per-query
        view (``repro.summary.substrate._build_substrate_view``) of each
        costs object in :attr:`cost_memo`; the entry holds the costs, so a
        recycled ``id()`` can never alias it.
    results:
        The finished searches of this plan an engine keeps, keyed on what
        else a search reads (``repro.core.engine``); a small LRU, so a
        client sweeping k cannot grow it.

    The graph and everything in the two memos are read-only once built:
    :func:`augment` hands the same instance to every search of the same
    matches, concurrently too.  Racing first computations store equal
    values, so the memos need no lock.
    """

    #: Finished searches retained per plan (LRU).
    MAX_RESULTS = 8

    def __init__(
        self,
        graph,
        keyword_elements: List[Set[Hashable]],
        match_scores: Dict[Hashable, float],
    ):
        self.graph = graph
        self.keyword_elements = keyword_elements
        self.match_scores = match_scores
        self.cost_memo: Dict[object, Mapping[Hashable, float]] = {}
        self.view_memo: Dict[int, Tuple[Mapping[Hashable, float], object]] = {}
        self.results: LruDict = LruDict(self.MAX_RESULTS)
        self._sorted_elements: Optional[Tuple[Tuple[Hashable, ...], ...]] = None

    def sorted_keyword_elements(self) -> Tuple[Tuple[Hashable, ...], ...]:
        """``keyword_elements`` with each K_i in canonical (repr-sorted)
        order, cached — the deterministic cursor-seeding order of the
        exploration, computed once even when the same augmented graph is
        explored repeatedly."""
        cached = self._sorted_elements
        if cached is None:
            cached = tuple(
                tuple(sorted(ks, key=repr)) for ks in self.keyword_elements
            )
            self._sorted_elements = cached
        return cached

    def matching_score(self, element_key: Hashable) -> float:
        return self.match_scores.get(element_key, 1.0)

    def __repr__(self):
        sizes = [len(k) for k in self.keyword_elements]
        return f"AugmentedSummaryGraph(graph={self.graph!r}, K sizes={sizes})"


def _resolve_class_keys(graph, classes) -> Set[Hashable]:
    """Vertex keys for the classes that actually exist in the summary graph.

    ``None`` (untyped) resolves to Thing, materializing it on demand; class
    terms unknown to the summary graph are dropped so augmentation never
    creates dangling anchors.
    """
    keys: Set[Hashable] = set()
    for cls in classes:
        key = graph.class_key(cls)
        if cls is None:
            graph.ensure_thing()
            keys.add(key)
        elif graph.has_element(key):
            keys.add(key)
    return keys


def augment(
    summary: SummaryGraph,
    matches_per_keyword: Sequence[Sequence[KeywordMatch]],
) -> AugmentedSummaryGraph:
    """The augmented summary graph G'_K for one query — the query's plan.

    Looked up in the plan LRU of ``summary``'s current substrate
    (:attr:`~repro.summary.substrate.ExplorationSubstrate.plans`) by the
    match objects themselves: the keyword index's lookup memo hands a
    repeated keyword the same objects, so a repeated query gets the same
    instance back, costs, view and bound tables included.  Matches built
    afresh — equal in content or not — miss, and get a plan of their own.
    """
    key = tuple(tuple(matches) for matches in matches_per_keyword)
    plans = summary.exploration_substrate().plans
    plan = plans.hit(key)
    if plan is None:
        plan = _build_augmented(summary, matches_per_keyword)
        plans.put(key, plan)
    return plan


def _build_augmented(
    summary: SummaryGraph,
    matches_per_keyword: Sequence[Sequence[KeywordMatch]],
) -> AugmentedSummaryGraph:
    """Build the augmented summary graph G'_K for one query (uncached).

    Match kinds are handled per Definition 5 and Section IV-B:

    * ``ClassMatch`` — the class vertex itself is the keyword element.
    * ``RelationMatch`` — every summary edge with that label represents the
      keyword (relations already live in the summary graph).
    * ``ValueMatch`` — add the V-vertex and its class-level A-edges; the
      V-vertex is the keyword element.
    * ``AttributeMatch`` — add an artificial ``value`` node and class-level
      A-edges; the *added edges* are the keyword elements.
    """
    graph = OverlaySummaryGraph(summary)
    keyword_elements: List[Set[Hashable]] = []
    match_scores: Dict[Hashable, float] = {}

    def _record_score(key: Hashable, score: float) -> None:
        if score > match_scores.get(key, 0.0):
            match_scores[key] = score

    for matches in matches_per_keyword:
        elements: Set[Hashable] = set()
        for match in matches:
            if isinstance(match, ClassMatch):
                key = graph.class_key(match.cls)
                if graph.has_element(key):
                    elements.add(key)
                    _record_score(key, match.score)
            elif isinstance(match, RelationMatch):
                for edge in graph.edges_with_label(match.label):
                    if edge.kind is SummaryEdgeKind.RELATION:
                        elements.add(edge.key)
                        _record_score(edge.key, match.score)
            elif isinstance(match, ValueMatch):
                anchors = _resolve_class_keys(
                    graph, [cls for _, cls in match.occurrences]
                )
                if not anchors:
                    continue
                value_vertex = graph.add_value_vertex(match.value)
                elements.add(value_vertex.key)
                _record_score(value_vertex.key, match.score)
                for attr_label, cls in match.occurrences:
                    class_key = graph.class_key(cls)
                    if class_key not in anchors:
                        continue
                    graph.add_edge(
                        attr_label,
                        SummaryEdgeKind.ATTRIBUTE,
                        class_key,
                        value_vertex.key,
                    )
            elif isinstance(match, AttributeMatch):
                anchors = _resolve_class_keys(graph, match.classes)
                if not anchors:
                    continue
                artificial = graph.add_artificial_value_vertex(match.label)
                for class_key in anchors:
                    edge = graph.add_edge(
                        match.label,
                        SummaryEdgeKind.ATTRIBUTE,
                        class_key,
                        artificial.key,
                    )
                    elements.add(edge.key)
                    _record_score(edge.key, match.score)
            else:  # pragma: no cover - future match kinds
                raise TypeError(f"unsupported match type {type(match).__name__}")
        keyword_elements.append(elements)

    return AugmentedSummaryGraph(graph, keyword_elements, match_scores)
