"""The summary graph of Definition 4, built by the aggregation rules.

Every class becomes one vertex aggregating its instances ([[v']]); ``Thing``
aggregates untyped entities; each data-graph R-edge projects to a summary
edge between the classes of its endpoints, so **for every path in the data
graph there is at least one path in the summary graph** (the data-guide-like
soundness property the exploration relies on).  Aggregation counts |v_agg|
and |e_agg| are retained for the C2 popularity cost.
"""

from __future__ import annotations

from itertools import chain
from typing import Dict, Hashable, Iterable, List, Optional, Tuple

from repro.rdf.derivation import count_projections
from repro.rdf.graph import DataGraph
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
from repro.summary.substrate import ExplorationSubstrate
from repro.util import now

_SUBCLASS_LABEL = URI("http://www.w3.org/2000/01/rdf-schema#subClassOf")


class SummaryGraph:
    """An element-addressable graph over classes, Thing, and their relations.

    Vertices and edges are retrieved by key; ``neighbors(key)`` yields the
    incident edges of a vertex or the endpoints of an edge, which is exactly
    the neighbor notion Algorithm 1 explores (edges are elements too).
    """

    def __init__(self):
        self._vertices: Dict[Hashable, SummaryVertex] = {}
        self._edges: Dict[Hashable, SummaryEdge] = {}
        self._incident: Dict[Hashable, List[Hashable]] = {}
        # Edge keys per label, so relation-keyword augmentation is
        # O(#edges with that label) instead of a full edge scan.
        self._by_label: Dict[URI, List[Hashable]] = {}
        # Totals from the underlying data graph, for cost normalization.
        self.total_entities: int = 0
        self.total_relation_edges: int = 0
        self.total_attribute_edges: int = 0
        self.build_seconds: float = 0.0
        # Monotone mutation counter; cached structures derived from this
        # graph (e.g. per-element base costs) key their validity on it.
        self.version: int = 0
        # (version, (repr, key) pairs) cache for the canonical order.
        self._canonical_cache: Optional[Tuple[int, Tuple]] = None
        # (version, substrate) cache for the exploration substrate.
        self._substrate_cache: Optional[Tuple[int, ExplorationSubstrate]] = None

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    @classmethod
    def from_data_graph(cls, graph: DataGraph) -> "SummaryGraph":
        """Apply the aggregation rules of Definition 4."""
        started = now()
        counts: Dict[Tuple[URI, Optional[Term], Optional[Term]], int] = {}
        types = graph.types_of
        for t in graph.relation_triples():
            count_projections(counts, t.predicate, types(t.subject), types(t.object))
        stats = graph.stats()
        summary = cls.from_counts(
            ((c, graph.instance_count(c)) for c in graph.classes),
            graph.untyped_entity_count,
            counts,
            graph.subclass_pairs(),
            (stats["entities"], stats["relation_edges"], stats["attribute_edges"]),
        )
        summary.build_seconds = now() - started
        return summary

    @classmethod
    def from_counts(
        cls,
        class_counts: Iterable[Tuple[Term, int]],
        untyped: int,
        edge_counts: Dict[Tuple[URI, Optional[Term], Optional[Term]], int],
        subclass_pairs: Iterable[Tuple[Term, Term]],
        totals: Tuple[int, int, int],
    ) -> "SummaryGraph":
        """Definition 4 replayed from counts: a vertex per ``(class,
        instances)``, Thing for ``untyped`` entities, an edge per counted
        projection (``count_projections``, ``None`` = Thing) and per direct
        subclass pair, and the cost models' ``(entities, relation edges,
        attribute edges)`` totals."""
        summary = cls()
        entities, relation_edges, attribute_edges = totals
        summary.total_entities = max(entities, 1)
        summary.total_relation_edges = max(relation_edges, 1)
        summary.total_attribute_edges = max(attribute_edges, 1)
        for class_term, count in class_counts:
            summary.add_class_vertex(class_term, agg_count=count)
        if untyped:
            summary.ensure_thing(agg_count=untyped)
        for (label, sc, tc), count in edge_counts.items():
            if sc is None or tc is None:
                summary.ensure_thing()
            summary.add_edge(
                label,
                SummaryEdgeKind.RELATION,
                summary.class_key(sc),
                summary.class_key(tc),
                agg_count=count,
            )
        for sub, sup in subclass_pairs:
            summary.add_edge(
                _SUBCLASS_LABEL,
                SummaryEdgeKind.SUBCLASS,
                ("class", sub),
                ("class", sup),
                agg_count=1,
            )
        return summary

    def class_key(self, class_term: Optional[Term]) -> Hashable:
        """The vertex key for a class term; ``None`` maps to Thing."""
        return THING_KEY if class_term is None else ("class", class_term)

    def add_class_vertex(self, class_term: Term, agg_count: int = 0) -> SummaryVertex:
        key = ("class", class_term)
        vertex = SummaryVertex(key, SummaryVertexKind.CLASS, class_term, agg_count)
        self._add_vertex(vertex)
        return vertex

    def ensure_thing(self, agg_count: Optional[int] = None) -> SummaryVertex:
        existing = self._vertices.get(THING_KEY)
        if existing is not None:
            if agg_count is not None and agg_count != existing.agg_count:
                vertex = SummaryVertex(
                    THING_KEY, SummaryVertexKind.THING, None, agg_count
                )
                self._vertices[THING_KEY] = vertex
                self.version += 1
                return vertex
            return existing
        vertex = SummaryVertex(THING_KEY, SummaryVertexKind.THING, None, agg_count or 0)
        self._add_vertex(vertex)
        return vertex

    def _add_vertex(self, vertex: SummaryVertex) -> None:
        if vertex.key in self._vertices:
            return
        self._vertices[vertex.key] = vertex
        self._incident.setdefault(vertex.key, [])
        self.version += 1

    def add_edge(
        self,
        label: URI,
        kind: SummaryEdgeKind,
        source_key: Hashable,
        target_key: Hashable,
        agg_count: int = 1,
    ) -> SummaryEdge:
        """Insert an edge (idempotent per (label, source, target) key)."""
        if source_key not in self._vertices:
            raise KeyError(f"unknown source vertex {source_key!r}")
        if target_key not in self._vertices:
            raise KeyError(f"unknown target vertex {target_key!r}")
        edge = SummaryEdge(label, kind, source_key, target_key, agg_count)
        existing = self._edges.get(edge.key)
        if existing is not None:
            return existing
        self._edges[edge.key] = edge
        self._incident[source_key].append(edge.key)
        if target_key != source_key:
            self._incident[target_key].append(edge.key)
        self._by_label.setdefault(label, []).append(edge.key)
        self.version += 1
        return edge

    # ------------------------------------------------------------------
    # Incremental maintenance (used by repro.maintenance.IndexManager)
    # ------------------------------------------------------------------

    def set_vertex_agg_count(self, key: Hashable, agg_count: int) -> SummaryVertex:
        """Replace a vertex's aggregation count (vertices are immutable)."""
        old = self._vertices[key]
        if old.agg_count == agg_count:
            return old
        vertex = SummaryVertex(old.key, old.kind, old.term, agg_count)
        self._vertices[key] = vertex
        self.version += 1
        return vertex

    def remove_vertex(self, key: Hashable) -> None:
        """Remove a vertex; its incident edges must already be gone."""
        incident = self._incident.get(key)
        if incident:
            raise ValueError(f"cannot remove vertex {key!r}: {len(incident)} incident edges")
        del self._vertices[key]
        self._incident.pop(key, None)
        self.version += 1

    def remove_edge(self, key: Hashable) -> None:
        """Remove an edge and unlink it from its endpoints."""
        edge = self._edges.pop(key)
        self._incident[edge.source_key].remove(key)
        if edge.target_key != edge.source_key:
            self._incident[edge.target_key].remove(key)
        bucket = self._by_label.get(edge.label)
        if bucket is not None:
            bucket.remove(key)
            if not bucket:
                del self._by_label[edge.label]
        self.version += 1

    def adjust_edge_agg_count(
        self,
        label: URI,
        kind: SummaryEdgeKind,
        source_key: Hashable,
        target_key: Hashable,
        delta: int,
    ) -> Optional[SummaryEdge]:
        """Apply a delta to an edge's aggregation count.

        Creates the edge when it does not exist and the delta is positive;
        removes it when the count drops to zero.  Returns the resulting
        edge, or ``None`` if it was (or stayed) removed.
        """
        key = edge_key(label, source_key, target_key)
        existing = self._edges.get(key)
        if existing is None:
            if delta <= 0:
                return None
            return self.add_edge(label, kind, source_key, target_key, agg_count=delta)
        count = existing.agg_count + delta
        if count <= 0:
            self.remove_edge(key)
            return None
        if count != existing.agg_count:
            replacement = existing.with_agg_count(count)
            self._edges[key] = replacement
            self.version += 1
            return replacement
        return existing

    def set_totals(
        self, entities: int, relation_edges: int, attribute_edges: int
    ) -> None:
        """Refresh the data-graph totals the cost models normalize by."""
        totals = (max(entities, 1), max(relation_edges, 1), max(attribute_edges, 1))
        if totals != (
            self.total_entities,
            self.total_relation_edges,
            self.total_attribute_edges,
        ):
            self.total_entities, self.total_relation_edges, self.total_attribute_edges = totals
            self.version += 1

    # ------------------------------------------------------------------
    # Element access
    # ------------------------------------------------------------------

    def vertex(self, key: Hashable) -> SummaryVertex:
        return self._vertices[key]

    def edge(self, key: Hashable) -> SummaryEdge:
        return self._edges[key]

    def element(self, key: Hashable):
        """Vertex or edge by key."""
        if is_edge_key(key):
            return self._edges[key]
        return self._vertices[key]

    def has_element(self, key: Hashable) -> bool:
        return key in self._vertices or key in self._edges

    @property
    def vertices(self) -> Tuple[SummaryVertex, ...]:
        return tuple(self._vertices.values())

    @property
    def edges(self) -> Tuple[SummaryEdge, ...]:
        return tuple(self._edges.values())

    def edges_with_label(self, label: URI) -> List[SummaryEdge]:
        return [self._edges[key] for key in self._by_label.get(label, ())]

    def incident_edges(self, vertex_key: Hashable) -> Tuple[Hashable, ...]:
        """Keys of all edges touching a vertex (direction ignored — the
        exploration is direction-agnostic, Section VI-A)."""
        return tuple(self._incident.get(vertex_key, ()))

    @property
    def snapshot_key(self) -> int:
        """The formal snapshot key of this graph: its mutation version.

        Every cache derived from the summary graph (canonical order,
        exploration substrate, cost base tables, query plans and their results)
        keys validity on this value, and
        :class:`~repro.core.snapshot.EngineSnapshot` pins it for the
        duration of a search.  It is :attr:`version` by another name — the
        property exists so "what identifies a summary state" is an API
        contract, not a convention spread across call sites.
        """
        return self.version

    def _canonical_pairs(self) -> Tuple:
        """Cached ``(repr, key)`` pairs sorted by repr — the deterministic
        interning order the substrate is built over."""
        cached = self._canonical_cache
        if cached is not None and cached[0] == self.version:
            return cached[1]
        pairs = tuple(
            sorted(
                ((repr(k), k) for k in chain(self._vertices, self._edges)),
                key=lambda p: p[0],
            )
        )
        self._canonical_cache = (self.version, pairs)
        return pairs

    def exploration_substrate(self) -> ExplorationSubstrate:
        """The intern tables of this graph, cached per :attr:`version`.

        The substrate is the query-invariant part of Algorithm 1's element
        interning (canonical key ↔ id tables plus neighbour-id rows);
        any mutation advances :attr:`version` and therefore invalidates it
        automatically — including every delta the
        :class:`~repro.maintenance.IndexManager` propagates.
        """
        substrate = self.built_substrate()
        if substrate is None:
            substrate = ExplorationSubstrate(self._canonical_pairs(), self.neighbors)
            self._substrate_cache = (self.version, substrate)
        return substrate

    def built_substrate(self) -> Optional[ExplorationSubstrate]:
        """The current version's substrate if a search has built it, else
        ``None`` — for statistics, which must not build one."""
        cached = self._substrate_cache
        if cached is not None and cached[0] == self.version:
            return cached[1]
        return None

    def neighbors(self, key: Hashable) -> Tuple[Hashable, ...]:
        """Neighbor *elements*: incident edges of a vertex, or endpoints of
        an edge."""
        if is_edge_key(key):
            edge = self._edges[key]
            if edge.source_key == edge.target_key:
                return (edge.source_key,)
            return (edge.source_key, edge.target_key)
        return self.incident_edges(key)

    def degree(self, vertex_key: Hashable) -> int:
        return len(self._incident.get(vertex_key, ()))

    # ------------------------------------------------------------------
    # Persistence (used by repro.storage)
    # ------------------------------------------------------------------

    def state_for_persistence(self) -> Dict[str, object]:
        """Vertices and edges in insertion order plus the scalars.

        Incidence lists and label buckets are not exported: replaying the
        same vertex/edge insertion order rebuilds them identically (see
        :meth:`from_state`).
        """
        return {
            "vertices": self._vertices,
            "edges": self._edges,
            "total_entities": self.total_entities,
            "total_relation_edges": self.total_relation_edges,
            "total_attribute_edges": self.total_attribute_edges,
            "build_seconds": self.build_seconds,
            "version": self.version,
        }

    @classmethod
    def from_state(
        cls,
        vertices: Iterable[SummaryVertex],
        edges: Iterable[Tuple[URI, SummaryEdgeKind, Hashable, Hashable, int]],
        *,
        total_entities: int,
        total_relation_edges: int,
        total_attribute_edges: int,
        build_seconds: float,
        version: int,
    ) -> "SummaryGraph":
        """Replay saved vertices and edges in their saved insertion order.

        Replaying through :meth:`_add_vertex` / :meth:`add_edge` (rather
        than adopting raw dicts) keeps this constructor honest about the
        class invariants — incidence lists and per-label buckets come out
        exactly as the live graph had them, because their order is purely
        a function of insertion order.  The mutation counter is then
        pinned to the saved ``version`` so the restored graph's
        :attr:`snapshot_key` matches the saved one.
        """
        summary = cls()
        for vertex in vertices:
            summary._add_vertex(vertex)
        for label, kind, source_key, target_key, agg_count in edges:
            summary.add_edge(label, kind, source_key, target_key, agg_count=agg_count)
        summary.total_entities = max(total_entities, 1)
        summary.total_relation_edges = max(total_relation_edges, 1)
        summary.total_attribute_edges = max(total_attribute_edges, 1)
        summary.build_seconds = build_seconds
        summary.version = version
        return summary

    # ------------------------------------------------------------------
    # Statistics (Fig. 6b)
    # ------------------------------------------------------------------

    def stats(self) -> Dict[str, float]:
        return {
            "vertices": len(self._vertices),
            "edges": len(self._edges),
            "estimated_bytes": 48 * len(self._vertices) + 80 * len(self._edges),
            "build_seconds": self.build_seconds,
        }

    def __len__(self) -> int:
        return len(self._vertices) + len(self._edges)

    def __repr__(self):
        return f"SummaryGraph(vertices={len(self._vertices)}, edges={len(self._edges)})"
