"""The data-graph view the baseline systems operate on.

BANKS-family systems model the database as a directed graph whose nodes are
tuples/entities; a keyword matches a node if it occurs in the node's text
(labels and attribute values).  This adapter derives that view from a
:class:`~repro.rdf.graph.DataGraph`:

* nodes — entities and classes (V-vertices fold into their owning entity:
  a node's text is its label plus all its attribute values);
* directed edges — R-edges plus ``type`` edges, with labels retained;
* keyword→nodes — an exact-match inverted index over node text (the
  baselines' published matching is exact, Section I of the paper).
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Set, Tuple

from repro.keyword.analysis import DEFAULT_ANALYZER
from repro.rdf.graph import DataGraph
from repro.rdf.namespace import local_name
from repro.rdf.terms import Term, URI


class EntityGraphView:
    """Adjacency + keyword index over the entity-level data graph."""

    def __init__(self, graph: DataGraph):
        self._graph = graph

        # Node universe: entities + classes, with integer ids for speed.
        self._nodes: List[Term] = []
        self._ids: Dict[Term, int] = {}
        self._out: List[List[Tuple[int, URI]]] = []
        self._in: List[List[Tuple[int, URI]]] = []
        self._term_to_nodes: Dict[str, Set[int]] = {}

        self._build()

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    def _node_id(self, term: Term) -> int:
        existing = self._ids.get(term)
        if existing is not None:
            return existing
        node_id = len(self._nodes)
        self._ids[term] = node_id
        self._nodes.append(term)
        self._out.append([])
        self._in.append([])
        return node_id

    def _index_text(self, node_id: int, text: str) -> None:
        for term in DEFAULT_ANALYZER.analyze_unique(text):
            self._term_to_nodes.setdefault(term, set()).add(node_id)

    def _build(self) -> None:
        graph = self._graph
        for entity in graph.entities:
            node_id = self._node_id(entity)
            self._index_text(node_id, local_name(entity) if isinstance(entity, URI) else str(entity))
            for predicate, value in graph.outgoing(entity):
                if value.is_literal:
                    self._index_text(node_id, value.lexical)
        for cls in graph.classes:
            node_id = self._node_id(cls)
            self._index_text(node_id, graph.label_of(cls))

        type_pred = graph.preferred_type_predicate
        subclass_pred = graph.preferred_subclass_predicate
        for triple in graph.relation_triples():
            source = self._ids[triple.subject]
            target = self._ids[triple.object]
            self._out[source].append((target, triple.predicate))
            self._in[target].append((source, triple.predicate))
        for entity in graph.entities:
            source = self._ids[entity]
            for cls in graph.types_of(entity):
                target = self._ids[cls]
                self._out[source].append((target, type_pred))
                self._in[target].append((source, type_pred))
        for sub, sup in graph.subclass_pairs():
            source = self._ids[sub]
            target = self._ids[sup]
            self._out[source].append((target, subclass_pred))
            self._in[target].append((source, subclass_pred))

    # ------------------------------------------------------------------
    # Access
    # ------------------------------------------------------------------

    @property
    def node_count(self) -> int:
        return len(self._nodes)

    @property
    def edge_count(self) -> int:
        return sum(len(edges) for edges in self._out)

    def term_of(self, node_id: int) -> Term:
        return self._nodes[node_id]

    def label_of(self, node_id: int) -> str:
        return self._graph.label_of(self._nodes[node_id])

    def out_edges(self, node_id: int) -> Sequence[Tuple[int, URI]]:
        return self._out[node_id]

    def in_edges(self, node_id: int) -> Sequence[Tuple[int, URI]]:
        return self._in[node_id]

    def undirected_neighbors(self, node_id: int) -> Iterable[Tuple[int, URI]]:
        yield from self._out[node_id]
        yield from self._in[node_id]

    # ------------------------------------------------------------------
    # Keyword matching (exact, per the baselines' published behaviour)
    # ------------------------------------------------------------------

    def keyword_nodes(self, keyword: str) -> FrozenSet[int]:
        """Nodes whose text contains every analyzed term of the keyword."""
        terms = DEFAULT_ANALYZER.analyze_unique(keyword)
        if not terms:
            return frozenset()
        result: Optional[Set[int]] = None
        for term in terms:
            bucket = self._term_to_nodes.get(term, set())
            result = set(bucket) if result is None else (result & bucket)
            if not result:
                return frozenset()
        return frozenset(result)

    def keyword_nodes_all(self, keywords: Sequence[str]) -> List[FrozenSet[int]]:
        return [self.keyword_nodes(k) for k in keywords]

    def __repr__(self):
        return f"EntityGraphView(nodes={self.node_count}, edges={self.edge_count})"
