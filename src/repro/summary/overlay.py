"""A zero-copy, query-scoped view over the summary graph.

The paper's augmentation (Definition 5) conceptually *extends* the summary
graph with keyword-matching V-vertices and A-edges.  The seed implementation
realized that extension by copying the whole summary graph per query — an
O(|summary|) term on every search.  :class:`OverlaySummaryGraph` realizes it
as a layered view instead: the immutable base graph stays shared across all
queries, and only the handful of augmentation-time vertices and edges (plus
their incidence) live in per-query dictionaries, so building the augmented
graph allocates O(#keyword matches).

The overlay exposes the same element-addressable API the exploration
(Algorithm 1), the query mapping (Section VI-D), and the cost models
(Section V) consume — ``vertex`` / ``edge`` / ``element`` / ``neighbors`` /
``incident_edges`` / ``edges_with_label`` / ``vertices`` / ``edges`` — with
overlay entries shadowing nothing: augmentation only ever *adds* elements,
never changes base ones, so every lookup is "overlay first, then base".

Mutating methods (``add_value_vertex``, ``add_artificial_value_vertex``,
``add_edge``, ``ensure_thing``) write exclusively to the overlay; the base
graph is never touched, which is what makes one base graph safely shareable
across concurrent queries.
"""

from __future__ import annotations

from itertools import chain
from typing import Dict, Hashable, List, Optional, Tuple

from repro.rdf.terms import Term, URI
from repro.summary.elements import (
    THING_KEY,
    SummaryEdge,
    SummaryEdgeKind,
    SummaryVertex,
    SummaryVertexKind,
    edge_key,
    is_edge_key,
)
from repro.summary.summary_graph import SummaryGraph


class OverlaySummaryGraph:
    """Keyword-derived vertices and edges layered over a base summary graph.

    Attributes
    ----------
    base:
        The shared, immutable-during-query :class:`SummaryGraph`.
    """

    __slots__ = ("base", "_added_vertices", "_added_edges", "_added_incident")

    def __init__(self, base: SummaryGraph):
        self.base = base
        self._added_vertices: Dict[Hashable, SummaryVertex] = {}
        self._added_edges: Dict[Hashable, SummaryEdge] = {}
        # Extra incident-edge keys per vertex (base vertices gain entries
        # here when augmentation attaches A-edges to them).
        self._added_incident: Dict[Hashable, List[Hashable]] = {}

    # ------------------------------------------------------------------
    # Pass-through data-graph totals (cost normalization)
    # ------------------------------------------------------------------

    @property
    def total_entities(self) -> int:
        return self.base.total_entities

    @property
    def total_relation_edges(self) -> int:
        return self.base.total_relation_edges

    @property
    def total_attribute_edges(self) -> int:
        return self.base.total_attribute_edges

    @property
    def build_seconds(self) -> float:
        return self.base.build_seconds

    # ------------------------------------------------------------------
    # Augmentation-time mutation (overlay only)
    # ------------------------------------------------------------------

    def class_key(self, class_term: Optional[Term]) -> Hashable:
        # Mirrors SummaryGraph.class_key without the delegation hop (hot
        # path: called per match occurrence during augmentation).
        return THING_KEY if class_term is None else ("class", class_term)

    def ensure_thing(self) -> SummaryVertex:
        """Thing for the overlay: reuse the base vertex, else materialize a
        query-local one (zero aggregated entities, by construction)."""
        existing = self._added_vertices.get(THING_KEY)
        if existing is not None:
            return existing
        base_thing = self.base._vertices.get(THING_KEY)
        if base_thing is not None:
            return base_thing
        vertex = SummaryVertex(THING_KEY, SummaryVertexKind.THING, None, 0)
        self._add_vertex(vertex)
        return vertex

    def add_value_vertex(self, literal, agg_count: int = 1) -> SummaryVertex:
        """An augmentation-time V-vertex (Definition 5, first bullet)."""
        key = ("value", literal)
        existing = self._added_vertices.get(key)
        if existing is not None:
            return existing
        vertex = SummaryVertex(key, SummaryVertexKind.VALUE, literal, agg_count)
        self._add_vertex(vertex)
        return vertex

    def add_artificial_value_vertex(self, label: URI) -> SummaryVertex:
        """The artificial ``value`` node of Definition 5 (second bullet)."""
        key = ("avalue", label)
        existing = self._added_vertices.get(key)
        if existing is not None:
            return existing
        vertex = SummaryVertex(key, SummaryVertexKind.ARTIFICIAL, None, 0)
        self._add_vertex(vertex)
        return vertex

    def _add_vertex(self, vertex: SummaryVertex) -> None:
        self._added_vertices[vertex.key] = vertex
        self._added_incident.setdefault(vertex.key, [])

    def add_edge(
        self,
        label: URI,
        kind: SummaryEdgeKind,
        source_key: Hashable,
        target_key: Hashable,
        agg_count: int = 1,
    ) -> SummaryEdge:
        """Insert an overlay edge (idempotent per (label, source, target))."""
        added, base_vertices = self._added_vertices, self.base._vertices
        if source_key not in added and source_key not in base_vertices:
            raise KeyError(f"unknown source vertex {source_key!r}")
        if target_key not in added and target_key not in base_vertices:
            raise KeyError(f"unknown target vertex {target_key!r}")
        key = edge_key(label, source_key, target_key)
        existing = self._added_edges.get(key)
        if existing is None:
            existing = self.base._edges.get(key)
        if existing is not None:
            return existing
        edge = SummaryEdge(label, kind, source_key, target_key, agg_count)
        self._added_edges[key] = edge
        self._added_incident.setdefault(source_key, []).append(key)
        if target_key != source_key:
            self._added_incident.setdefault(target_key, []).append(key)
        return edge

    # ------------------------------------------------------------------
    # Element access (overlay first, then base)
    # ------------------------------------------------------------------

    def vertex(self, key: Hashable) -> SummaryVertex:
        vertex = self._added_vertices.get(key)
        return vertex if vertex is not None else self.base.vertex(key)

    def edge(self, key: Hashable) -> SummaryEdge:
        edge = self._added_edges.get(key)
        return edge if edge is not None else self.base.edge(key)

    def element(self, key: Hashable):
        if is_edge_key(key):
            return self.edge(key)
        return self.vertex(key)

    def has_element(self, key: Hashable) -> bool:
        return (
            key in self._added_vertices
            or key in self._added_edges
            or key in self.base._vertices
            or key in self.base._edges
        )

    @property
    def vertices(self) -> Tuple[SummaryVertex, ...]:
        return self.base.vertices + tuple(self._added_vertices.values())

    @property
    def edges(self) -> Tuple[SummaryEdge, ...]:
        return self.base.edges + tuple(self._added_edges.values())

    @property
    def added_vertices(self) -> Tuple[SummaryVertex, ...]:
        """Overlay-only vertices (the per-query augmentation)."""
        return tuple(self._added_vertices.values())

    @property
    def added_edges(self) -> Tuple[SummaryEdge, ...]:
        """Overlay-only edges (the per-query augmentation)."""
        return tuple(self._added_edges.values())

    def added_element_keys(self) -> Tuple[Hashable, ...]:
        """Keys of overlay-only elements (vertices, then edges).

        A plan's exploration view merges exactly these into the base
        graph's canonical order (``repro.core.exploration``).
        """
        return tuple(chain(self._added_vertices, self._added_edges))

    def added_incident_map(self) -> Dict[Hashable, List[Hashable]]:
        """Vertex key → overlay edge keys attached at query time.

        Includes entries for base vertices that gained A-edges; callers
        must treat the mapping as read-only.
        """
        return self._added_incident

    def edges_with_label(self, label: URI) -> List[SummaryEdge]:
        out = self.base.edges_with_label(label)
        added = [e for e in self._added_edges.values() if e.label == label]
        return out + added if added else out

    def incident_edges(self, vertex_key: Hashable) -> Tuple[Hashable, ...]:
        added = self._added_incident.get(vertex_key)
        if vertex_key in self._added_vertices:
            return tuple(added or ())
        base = self.base.incident_edges(vertex_key)
        return base + tuple(added) if added else base

    def neighbors(self, key: Hashable) -> Tuple[Hashable, ...]:
        if is_edge_key(key):
            edge = self.edge(key)
            if edge.source_key == edge.target_key:
                return (edge.source_key,)
            return (edge.source_key, edge.target_key)
        return self.incident_edges(key)

    def degree(self, vertex_key: Hashable) -> int:
        return len(self.incident_edges(vertex_key))

    # ------------------------------------------------------------------
    # Statistics
    # ------------------------------------------------------------------

    def stats(self) -> Dict[str, float]:
        stats = self.base.stats()
        stats["vertices"] += len(self._added_vertices)
        stats["edges"] += len(self._added_edges)
        stats["estimated_bytes"] += (
            48 * len(self._added_vertices) + 80 * len(self._added_edges)
        )
        return stats

    def __len__(self) -> int:
        return len(self.base) + len(self._added_vertices) + len(self._added_edges)

    def __repr__(self):
        return (
            f"OverlaySummaryGraph(base={self.base!r}, "
            f"added_vertices={len(self._added_vertices)}, "
            f"added_edges={len(self._added_edges)})"
        )
