"""Element model of the (augmented) summary graph.

Both vertices and edges are first-class *elements*: the exploration of
Algorithm 1 walks vertex → edge → vertex, because keywords may map to edges
(relations, attributes) just as well as to vertices.  Every element has a
hashable ``key`` that identifies it across graph copies, and an aggregation
count feeding the C2 popularity cost.

Key shapes:

* ``("class", term)`` — a C-vertex
* ``("thing",)`` — the Thing vertex (untyped entities)
* ``("value", literal)`` — an augmented keyword-matching V-vertex
* ``("avalue", label)`` — the artificial ``value`` node of Definition 5
* ``("edge", label, source_key, target_key)`` — any edge
"""

from __future__ import annotations

from enum import Enum
from typing import Hashable, Optional, Tuple

from repro.rdf.namespace import local_name
from repro.rdf.terms import Literal, Term, URI

#: Key of the Thing vertex, aggregation of all untyped entities.
THING_KEY: Tuple[str, ...] = ("thing",)


class SummaryVertexKind(Enum):
    CLASS = "class"
    THING = "thing"
    VALUE = "value"  # keyword-matching V-vertex (augmentation)
    ARTIFICIAL = "avalue"  # Definition 5's artificial `value` node


class SummaryEdgeKind(Enum):
    RELATION = "relation"
    ATTRIBUTE = "attribute"
    SUBCLASS = "subclass"


class SummaryVertex:
    """A vertex of the (augmented) summary graph."""

    __slots__ = ("key", "kind", "term", "agg_count")

    def __init__(
        self,
        key: Hashable,
        kind: SummaryVertexKind,
        term: Optional[Term],
        agg_count: int = 0,
    ):
        object.__setattr__(self, "key", key)
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "term", term)
        object.__setattr__(self, "agg_count", agg_count)

    def __setattr__(self, name, value):  # pragma: no cover - guard
        raise AttributeError("SummaryVertex is immutable")

    @property
    def label(self) -> str:
        if self.kind is SummaryVertexKind.THING:
            return "Thing"
        if self.kind is SummaryVertexKind.ARTIFICIAL:
            return "value"
        if isinstance(self.term, Literal):
            return self.term.lexical
        if isinstance(self.term, URI):
            return local_name(self.term)
        return str(self.term)

    def __eq__(self, other):
        return isinstance(other, SummaryVertex) and other.key == self.key

    def __hash__(self):
        return hash(self.key)

    def __repr__(self):
        return f"SummaryVertex({self.label}, kind={self.kind.value}, agg={self.agg_count})"


class SummaryEdge:
    """An edge of the (augmented) summary graph."""

    __slots__ = ("key", "label", "kind", "source_key", "target_key", "agg_count")

    def __init__(
        self,
        label: URI,
        kind: SummaryEdgeKind,
        source_key: Hashable,
        target_key: Hashable,
        agg_count: int = 0,
    ):
        object.__setattr__(self, "key", edge_key(label, source_key, target_key))
        object.__setattr__(self, "label", label)
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "source_key", source_key)
        object.__setattr__(self, "target_key", target_key)
        object.__setattr__(self, "agg_count", agg_count)

    def __setattr__(self, name, value):  # pragma: no cover - guard
        raise AttributeError("SummaryEdge is immutable")

    def with_agg_count(self, agg_count: int) -> "SummaryEdge":
        return SummaryEdge(self.label, self.kind, self.source_key, self.target_key, agg_count)

    @property
    def name(self) -> str:
        return local_name(self.label)

    def __eq__(self, other):
        return isinstance(other, SummaryEdge) and other.key == self.key

    def __hash__(self):
        return hash(self.key)

    def __repr__(self):
        return (
            f"SummaryEdge({self.name}: {self.source_key} -> {self.target_key}, "
            f"kind={self.kind.value}, agg={self.agg_count})"
        )


def edge_key(label: URI, source_key: Hashable, target_key: Hashable) -> Tuple:
    """The key an edge with these endpoints is addressed by."""
    return ("edge", label, source_key, target_key)


def is_edge_key(key: Hashable) -> bool:
    """True if a key addresses an edge (vs. a vertex)."""
    return isinstance(key, tuple) and len(key) == 4 and key[0] == "edge"
