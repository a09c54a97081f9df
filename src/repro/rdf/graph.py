"""The data graph of Definition 1.

A :class:`DataGraph` holds a set of triples and classifies

* vertices into **E-vertices** (entities), **C-vertices** (classes) and
  **V-vertices** (data values), and
* edges into **R-edges** (inter-entity relations, ``L_R``), **A-edges**
  (entity-attribute assignments, ``L_A``), and the two special edges
  ``type`` and ``subclass``

exactly as Definition 1 of the paper prescribes.  The classification is
derived, not declared: any URI that occurs as the object of a ``type`` edge
or on either side of a ``subclass`` edge is a C-vertex; literals are
V-vertices; remaining URIs/blank nodes are E-vertices.

The graph is fully dynamic: triples may be added *and removed*, and the
derived classification is maintained incrementally through per-term role
reference counts — a term is a class while any type/subclass triple
supports that role, an entity while it occurs in an entity position and is
not a class, and so on.  This is what lets the offline indexes (keyword
index, summary graph, triple store) be maintained by deltas instead of
rebuilt (see :mod:`repro.maintenance`).

Real-world RDF violates the disjointness Definition 1 assumes (a URI may be
used both as a class and as an entity).  The constructor resolves such
conflicts with a documented precedence (class wins) and records them; strict
mode raises :class:`GraphIntegrityError` instead.
"""

from __future__ import annotations

from collections import defaultdict
from enum import Enum
from typing import Dict, FrozenSet, Iterable, Iterator, List, Optional, Set, Tuple

from repro.rdf.derivation import best_label, display_label, label_key
from repro.rdf.namespace import SUBCLASS_PREDICATES, TYPE_PREDICATES
from repro.rdf.terms import Literal, Term, URI
from repro.rdf.triples import Triple


class VertexKind(Enum):
    """The three disjoint vertex sets of Definition 1."""

    ENTITY = "entity"  # V_E
    CLASS = "class"  # V_C
    VALUE = "value"  # V_V


class EdgeKind(Enum):
    """The four edge-label sets of Definition 1."""

    RELATION = "relation"  # L_R : E-vertex -> E-vertex
    ATTRIBUTE = "attribute"  # L_A : E-vertex -> V-vertex
    TYPE = "type"  # type : E-vertex -> C-vertex
    SUBCLASS = "subclass"  # subclass : C-vertex -> C-vertex


class GraphIntegrityError(ValueError):
    """Raised in strict mode when triples violate Definition 1."""


class DataGraph:
    """An RDF data graph with the vertex/edge classification of Definition 1.

    Parameters
    ----------
    triples:
        Optional initial triples.
    strict:
        If true, triples that violate Definition 1 (e.g. a literal-valued
        ``type`` edge, or a term used both as class and entity) raise
        :class:`GraphIntegrityError`.  If false (default), conflicts are
        resolved by precedence — class beats entity — and recorded in
        :attr:`conflicts`.
    """

    def __init__(self, triples: Optional[Iterable[Triple]] = None, strict: bool = False):
        self.strict = strict
        # Insertion-ordered triple set (dict keys preserve order, O(1) remove).
        self._triples: Dict[Triple, None] = {}

        # Role reference counts: how many stored triples support each role.
        self._entity_refs: Dict[Term, int] = defaultdict(int)
        self._class_refs: Dict[Term, int] = defaultdict(int)
        self._value_refs: Dict[Literal, int] = defaultdict(int)

        # Vertex classification, derived from the refcounts (class wins).
        self._classes: Set[Term] = set()
        self._entities: Set[Term] = set()
        self._values: Set[Literal] = set()
        self._untyped: Set[Term] = set()

        # type / subclass structure, with per-pair refcounts so the same
        # (subject, object) pair asserted through several predicate
        # variants survives partial removal.
        self._type_pair_refs: Dict[Tuple[Term, Term], int] = defaultdict(int)
        self._subclass_pair_refs: Dict[Tuple[Term, Term], int] = defaultdict(int)
        self._types_of: Dict[Term, Set[Term]] = defaultdict(set)
        self._instances_of: Dict[Term, Set[Term]] = defaultdict(set)
        self._superclasses: Dict[Term, Set[Term]] = defaultdict(set)
        self._subclasses: Dict[Term, Set[Term]] = defaultdict(set)

        # Adjacency over non-type edges: subject -> {(predicate, object)} and
        # object -> {(predicate, subject)} as insertion-ordered dicts, so a
        # single removal is O(1) instead of an O(degree) list scan (pairs
        # are unique per vertex because triples are deduplicated).
        self._out: Dict[Term, Dict[Tuple[URI, Term], None]] = defaultdict(dict)
        self._in: Dict[Term, Dict[Tuple[URI, Term], None]] = defaultdict(dict)

        # Per-predicate triple sets (insertion-ordered), bucketed by kind.
        self._relation_triples: Dict[URI, Dict[Triple, None]] = defaultdict(dict)
        self._attribute_triples: Dict[URI, Dict[Triple, None]] = defaultdict(dict)

        # Labels: subject -> its derivation.best_label.
        self._labels: Dict[Term, str] = {}

        # Which concrete type/subclass predicate variants the data uses,
        # so generated queries stay evaluable against this graph.
        self._type_pred_counts: Dict[URI, int] = defaultdict(int)
        self._subclass_pred_counts: Dict[URI, int] = defaultdict(int)

        self.conflicts: List[str] = []

        if triples is not None:
            for t in triples:
                self.add(t)

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------

    def add(self, triple: Triple) -> bool:
        """Add a triple; returns False if it was already present.

        In strict mode, Definition 1 violations are detected *before* any
        state is touched, so a raised :class:`GraphIntegrityError` leaves
        the graph exactly as it was (no partial role refcounts).
        """
        if triple in self._triples:
            return False
        if self.strict:
            self._check_strict(triple)

        s, p, o = triple
        if p in TYPE_PREDICATES:
            self._add_type(triple)
        elif p in SUBCLASS_PREDICATES:
            self._add_subclass(triple)
        elif isinstance(o, Literal):
            self._add_attribute(triple)
        else:
            self._add_relation(triple)

        self._triples[triple] = None
        return True

    def add_all(self, triples: Iterable[Triple]) -> int:
        """Add many triples; returns the number actually inserted."""
        return sum(1 for t in triples if self.add(t))

    def _check_strict(self, triple: Triple) -> None:
        """Raise on any Definition 1 violation this triple would commit,
        without mutating — mirrors the conflict rules of the ``_acquire_*``
        helpers so strict adds are atomic."""
        s, p, o = triple
        if p in TYPE_PREDICATES:
            if isinstance(o, Literal):
                raise GraphIntegrityError(f"type edge with literal object: {triple.n3()}")
            # Acquisition's order: the subject as an entity, then the
            # object as a class (a self-typed subject is an entity by then).
            if s in self._classes:
                raise GraphIntegrityError(f"term used both as class and entity: {s}")
            if s == o or o in self._entities:
                raise GraphIntegrityError(f"term used both as entity and class: {o}")
        elif p in SUBCLASS_PREDICATES:
            if isinstance(s, Literal) or isinstance(o, Literal):
                raise GraphIntegrityError(
                    f"subclass edge with literal endpoint: {triple.n3()}"
                )
            for term in (s, o):
                if term in self._entities:
                    raise GraphIntegrityError(
                        f"term used both as entity and class: {term}"
                    )
        elif isinstance(o, Literal):
            if s in self._classes:
                raise GraphIntegrityError(f"term used both as class and entity: {s}")
        else:
            for term in (s, o):
                if term in self._classes:
                    raise GraphIntegrityError(
                        f"term used both as class and entity: {term}"
                    )

    def remove(self, triple: Triple) -> bool:
        """Remove a triple; returns False if it was not present.

        The derived classification is unwound incrementally: roles lose one
        reference each, and a term whose class role disappears falls back
        to being an entity if entity-positioned triples still mention it.
        """
        if triple not in self._triples:
            return False

        s, p, o = triple
        if p in TYPE_PREDICATES:
            self._remove_type(triple)
        elif p in SUBCLASS_PREDICATES:
            self._remove_subclass(triple)
        elif isinstance(o, Literal):
            self._remove_attribute(triple)
        else:
            self._remove_relation(triple)

        del self._triples[triple]
        return True

    def remove_all(self, triples: Iterable[Triple]) -> int:
        """Remove many triples; returns the number actually removed."""
        return sum(1 for t in triples if self.remove(t))

    # -- per-kind add/remove -------------------------------------------

    def _add_type(self, triple: Triple) -> None:
        s, p, o = triple
        if isinstance(o, Literal):
            self._violation(f"type edge with literal object: {triple.n3()}")
            return
        self._acquire_entity(s)
        self._acquire_class(o)
        pair = (s, o)
        self._type_pair_refs[pair] += 1
        if self._type_pair_refs[pair] == 1:
            self._types_of[s].add(o)
            self._instances_of[o].add(s)
            self._untyped.discard(s)
        self._type_pred_counts[p] += 1

    def _remove_type(self, triple: Triple) -> None:
        s, p, o = triple
        if isinstance(o, Literal):
            return  # was never classified
        pair = (s, o)
        self._type_pair_refs[pair] -= 1
        if self._type_pair_refs[pair] == 0:
            del self._type_pair_refs[pair]
            self._types_of[s].discard(o)
            self._instances_of[o].discard(s)
            if s in self._entities and not self._types_of.get(s):
                self._untyped.add(s)
        self._type_pred_counts[p] -= 1
        if self._type_pred_counts[p] == 0:
            del self._type_pred_counts[p]
        self._release_class(o)
        self._release_entity(s)

    def _add_subclass(self, triple: Triple) -> None:
        s, p, o = triple
        if isinstance(s, Literal) or isinstance(o, Literal):
            self._violation(f"subclass edge with literal endpoint: {triple.n3()}")
            return
        self._acquire_class(s)
        self._acquire_class(o)
        pair = (s, o)
        self._subclass_pair_refs[pair] += 1
        if self._subclass_pair_refs[pair] == 1:
            self._superclasses[s].add(o)
            self._subclasses[o].add(s)
        self._subclass_pred_counts[p] += 1

    def _remove_subclass(self, triple: Triple) -> None:
        s, p, o = triple
        if isinstance(s, Literal) or isinstance(o, Literal):
            return
        pair = (s, o)
        self._subclass_pair_refs[pair] -= 1
        if self._subclass_pair_refs[pair] == 0:
            del self._subclass_pair_refs[pair]
            self._superclasses[s].discard(o)
            self._subclasses[o].discard(s)
        self._subclass_pred_counts[p] -= 1
        if self._subclass_pred_counts[p] == 0:
            del self._subclass_pred_counts[p]
        self._release_class(o)
        self._release_class(s)

    def _add_attribute(self, triple: Triple) -> None:
        s, p, o = triple
        self._acquire_entity(s)
        self._acquire_value(o)
        self._attribute_triples[p][triple] = None
        self._out[s][(p, o)] = None
        self._in[o][(p, s)] = None
        if label_key(p, o) is not None:
            self._relabel(s)

    def _remove_attribute(self, triple: Triple) -> None:
        s, p, o = triple
        bucket = self._attribute_triples[p]
        del bucket[triple]
        if not bucket:
            del self._attribute_triples[p]
        del self._out[s][(p, o)]
        del self._in[o][(p, s)]
        if label_key(p, o) is not None:
            self._relabel(s)
        self._release_value(o)
        self._release_entity(s)

    def _add_relation(self, triple: Triple) -> None:
        s, p, o = triple
        self._acquire_entity(s)
        self._acquire_entity(o)
        self._relation_triples[p][triple] = None
        self._out[s][(p, o)] = None
        self._in[o][(p, s)] = None

    def _remove_relation(self, triple: Triple) -> None:
        s, p, o = triple
        bucket = self._relation_triples[p]
        del bucket[triple]
        if not bucket:
            del self._relation_triples[p]
        del self._out[s][(p, o)]
        del self._in[o][(p, s)]
        self._release_entity(o)
        self._release_entity(s)

    # -- role reference counting ---------------------------------------

    def _acquire_entity(self, term: Term) -> None:
        self._entity_refs[term] += 1
        if term in self._classes:
            # Class role wins; keep the term out of the entity set.
            self._violation(f"term used both as class and entity: {term}")
            return
        if term not in self._entities:
            self._entities.add(term)
            if not self._types_of.get(term):
                self._untyped.add(term)

    def _release_entity(self, term: Term) -> None:
        self._entity_refs[term] -= 1
        if self._entity_refs[term] == 0:
            del self._entity_refs[term]
            self._entities.discard(term)
            self._untyped.discard(term)

    def _acquire_class(self, term: Term) -> None:
        self._class_refs[term] += 1
        if term in self._entities:
            self._violation(f"term used both as entity and class: {term}")
            self._entities.discard(term)
            self._untyped.discard(term)
        self._classes.add(term)

    def _release_class(self, term: Term) -> None:
        self._class_refs[term] -= 1
        if self._class_refs[term] == 0:
            del self._class_refs[term]
            self._classes.discard(term)
            if self._entity_refs.get(term, 0) > 0:
                # The entity role resurfaces once the class role is gone.
                self._entities.add(term)
                if not self._types_of.get(term):
                    self._untyped.add(term)

    def _acquire_value(self, literal: Literal) -> None:
        self._value_refs[literal] += 1
        self._values.add(literal)

    def _release_value(self, literal: Literal) -> None:
        self._value_refs[literal] -= 1
        if self._value_refs[literal] == 0:
            del self._value_refs[literal]
            self._values.discard(literal)

    # -- labels ---------------------------------------------------------

    def _relabel(self, s: Term) -> None:
        """Re-derive a subject's label after one of its label edges came
        or went."""
        label = best_label(
            (p, o) for p, o in self._out.get(s, ()) if isinstance(o, Literal)
        )
        if label is None:
            self._labels.pop(s, None)
        else:
            self._labels[s] = label

    def _violation(self, message: str) -> None:
        if self.strict:
            raise GraphIntegrityError(message)
        self.conflicts.append(message)

    # ------------------------------------------------------------------
    # Size / membership
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._triples)

    def __contains__(self, triple: Triple) -> bool:
        return triple in self._triples

    def __iter__(self) -> Iterator[Triple]:
        return iter(self._triples)

    @property
    def triples(self) -> Tuple[Triple, ...]:
        return tuple(self._triples)

    # ------------------------------------------------------------------
    # Vertex classification (Definition 1)
    # ------------------------------------------------------------------

    def vertex_kind(self, term: Term) -> Optional[VertexKind]:
        """Classify a term, or None if it does not occur as a vertex."""
        if term in self._classes:
            return VertexKind.CLASS
        if term in self._entities:
            return VertexKind.ENTITY
        if isinstance(term, Literal) and term in self._values:
            return VertexKind.VALUE
        return None

    @property
    def classes(self) -> FrozenSet[Term]:
        """The C-vertices."""
        return frozenset(self._classes)

    @property
    def entities(self) -> FrozenSet[Term]:
        """The E-vertices."""
        return frozenset(self._entities)

    @property
    def values(self) -> FrozenSet[Literal]:
        """The V-vertices (shared literal nodes)."""
        return frozenset(self._values)

    # ------------------------------------------------------------------
    # Edge classification (Definition 1)
    # ------------------------------------------------------------------

    def edge_kind(self, triple: Triple) -> EdgeKind:
        p = triple.predicate
        if p in TYPE_PREDICATES:
            return EdgeKind.TYPE
        if p in SUBCLASS_PREDICATES:
            return EdgeKind.SUBCLASS
        if isinstance(triple.object, Literal):
            return EdgeKind.ATTRIBUTE
        return EdgeKind.RELATION

    @property
    def relation_labels(self) -> FrozenSet[URI]:
        """The edge labels L_R."""
        return frozenset(self._relation_triples)

    @property
    def attribute_labels(self) -> FrozenSet[URI]:
        """The edge labels L_A."""
        return frozenset(self._attribute_triples)

    def has_relation_label(self, label: URI) -> bool:
        """O(1): does any stored R-edge carry this label?"""
        return label in self._relation_triples

    def relation_triples(self, label: Optional[URI] = None) -> Iterator[Triple]:
        """All R-edge triples, optionally restricted to one label."""
        if label is not None:
            yield from self._relation_triples.get(label, ())
        else:
            for triples in self._relation_triples.values():
                yield from triples

    def attribute_triples(self, label: Optional[URI] = None) -> Iterator[Triple]:
        """All A-edge triples, optionally restricted to one label."""
        if label is not None:
            yield from self._attribute_triples.get(label, ())
        else:
            for triples in self._attribute_triples.values():
                yield from triples

    # ------------------------------------------------------------------
    # type / subclass structure
    # ------------------------------------------------------------------

    def types_of(self, entity: Term) -> FrozenSet[Term]:
        """The classes an entity is directly typed with (may be empty)."""
        return frozenset(self._types_of.get(entity, ()))

    def instances_of(self, cls: Term) -> FrozenSet[Term]:
        """The entities directly typed with a class."""
        return frozenset(self._instances_of.get(cls, ()))

    def instance_count(self, cls: Term) -> int:
        """``len(instances_of(cls))`` without building the set."""
        return len(self._instances_of.get(cls, ()))

    def superclasses_of(self, cls: Term, transitive: bool = False) -> FrozenSet[Term]:
        """Direct (or transitive) superclasses of a class."""
        if not transitive:
            return frozenset(self._superclasses.get(cls, ()))
        seen: Set[Term] = set()
        stack = list(self._superclasses.get(cls, ()))
        while stack:
            c = stack.pop()
            if c in seen:
                continue
            seen.add(c)
            stack.extend(self._superclasses.get(c, ()))
        return frozenset(seen)

    def subclasses_of(self, cls: Term, transitive: bool = False) -> FrozenSet[Term]:
        """Direct (or transitive) subclasses of a class."""
        if not transitive:
            return frozenset(self._subclasses.get(cls, ()))
        seen: Set[Term] = set()
        stack = list(self._subclasses.get(cls, ()))
        while stack:
            c = stack.pop()
            if c in seen:
                continue
            seen.add(c)
            stack.extend(self._subclasses.get(c, ()))
        return frozenset(seen)

    def subclass_pairs(self) -> Iterator[Tuple[Term, Term]]:
        """All direct ``(subclass, superclass)`` pairs."""
        for sub, supers in self._superclasses.items():
            for sup in supers:
                yield sub, sup

    @property
    def preferred_type_predicate(self) -> URI:
        """The ``type`` predicate variant the data actually uses (most
        frequent wins; defaults to ``rdf:type``)."""
        if self._type_pred_counts:
            return max(
                self._type_pred_counts.items(), key=lambda kv: (kv[1], kv[0].value)
            )[0]
        from repro.rdf.namespace import RDF

        return RDF.type

    @property
    def preferred_subclass_predicate(self) -> URI:
        """The ``subclass`` predicate variant the data actually uses."""
        if self._subclass_pred_counts:
            return max(
                self._subclass_pred_counts.items(), key=lambda kv: (kv[1], kv[0].value)
            )[0]
        from repro.rdf.namespace import RDFS

        return RDFS.subClassOf

    @property
    def untyped_entities(self) -> FrozenSet[Term]:
        """Entities with no ``type`` edge — aggregated into ``Thing``."""
        return frozenset(self._untyped)

    @property
    def untyped_entity_count(self) -> int:
        """O(1) count of untyped entities (the ``Thing`` aggregation)."""
        return len(self._untyped)

    # ------------------------------------------------------------------
    # Navigation
    # ------------------------------------------------------------------

    def outgoing(self, vertex: Term) -> Tuple[Tuple[URI, Term], ...]:
        """Outgoing (predicate, object) pairs over R- and A-edges."""
        return tuple(self._out.get(vertex, ()))

    def incoming(self, vertex: Term) -> Tuple[Tuple[URI, Term], ...]:
        """Incoming (predicate, subject) pairs over R- and A-edges."""
        return tuple(self._in.get(vertex, ()))

    def attribute_occurrences(
        self, value: Literal
    ) -> Iterator[Tuple[URI, Term, FrozenSet[Term]]]:
        """For a V-vertex: its ``(A-edge label, entity, entity classes)`` uses.

        This is the raw material for the keyword index's
        ``[V-vertex, A-edge, (C-vertex_1..n)]`` structure (Section IV-A).
        """
        for p, s in self._in.get(value, ()):
            yield p, s, self.types_of(s)

    def label_of(self, term: Term) -> str:
        """A human-readable label: the entity's name/title/label attribute,
        a literal's lexical form, or the URI's local name."""
        return display_label(term, self._labels.get(term))

    # ------------------------------------------------------------------
    # Statistics
    # ------------------------------------------------------------------

    def stats(self) -> Dict[str, int]:
        """Structural counts used in the paper's Fig. 6b discussion."""
        return {
            "triples": len(self._triples),
            "entities": len(self._entities),
            "classes": len(self._classes),
            "values": len(self._values),
            "relation_labels": len(self._relation_triples),
            "attribute_labels": len(self._attribute_triples),
            "relation_edges": sum(len(v) for v in self._relation_triples.values()),
            "attribute_edges": sum(len(v) for v in self._attribute_triples.values()),
            "untyped_entities": len(self._untyped),
        }

    def __repr__(self):
        s = self.stats()
        return (
            f"DataGraph(triples={s['triples']}, entities={s['entities']}, "
            f"classes={s['classes']}, values={s['values']})"
        )
