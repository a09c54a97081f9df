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

The triples themselves live in one place, the graph's
:class:`~repro.store.triple_store.TripleStore` (:attr:`DataGraph.store`),
which is also the store an engine executes its queries on.  The graph is a
view over it: adjacency, edges by label, types and subclasses are read
through the store's public probes (``match``, ``access``, ``objects``,
``subjects``), and the graph keeps only the triples' order of arrival and
per-term / per-predicate state (role refcounts and the vertex sets they
derive, labels, edge counts per label).

The graph is fully dynamic: triples may be added *and removed*, and the
derived classification is maintained incrementally through per-term role
reference counts — a term is a class while any type/subclass triple
supports that role, an entity while it occurs in an entity position and is
not a class, and so on.  This is what lets the offline indexes (keyword
index, summary graph) be maintained by deltas instead of rebuilt (see
:mod:`repro.maintenance`).

Iteration follows first arrival, duplicates dropped: a triple added again
after its removal goes to the end.  That order is a contract — it is the
order :meth:`KeywordSearchEngine.save` streams to the bundle builder and
the order a corpus is cut in (``perf/workloads.py``).

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
from repro.rdf.namespace import LABEL_PREDICATES, SUBCLASS_PREDICATES, TYPE_PREDICATES
from repro.rdf.terms import Literal, Term, URI
from repro.rdf.triples import Triple
from repro.store.triple_store import TripleStore

_SPECIAL = TYPE_PREDICATES | SUBCLASS_PREDICATES


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
        #: The only per-triple index: the graph's accessors probe it, and
        #: an engine over this graph executes its queries on it.
        self.store = TripleStore()
        # The triples in order of first arrival (dict keys, O(1) remove).
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

        # R- and A-edges per label: the labels L_R / L_A are the keys.
        self._relation_counts: Dict[URI, int] = defaultdict(int)
        self._attribute_counts: Dict[URI, int] = defaultdict(int)

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
        the graph and its store exactly as they were.
        """
        if triple in self._triples:
            return False
        if self.strict:
            self._check_strict(triple)
        # Stored first: the role and label updates below read the store.
        self.store.add(triple)
        self._triples[triple] = None

        s, p, o = triple
        if p in TYPE_PREDICATES:
            self._add_type(triple)
        elif p in SUBCLASS_PREDICATES:
            self._add_subclass(triple)
        elif isinstance(o, Literal):
            self._acquire_entity(s)
            self._acquire_value(o)
            self._attribute_counts[p] += 1
            if label_key(p, o) is not None:
                self._relabel(s)
        else:
            self._acquire_entity(s)
            self._acquire_entity(o)
            self._relation_counts[p] += 1
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
        # Unstored first: the role and label updates below read the store.
        self.store.remove(triple)
        del self._triples[triple]

        s, p, o = triple
        if p in TYPE_PREDICATES:
            self._remove_type(triple)
        elif p in SUBCLASS_PREDICATES:
            self._remove_subclass(triple)
        elif isinstance(o, Literal):
            _decrement(self._attribute_counts, p)
            if label_key(p, o) is not None:
                self._relabel(s)
            self._release_value(o)
            self._release_entity(s)
        else:
            _decrement(self._relation_counts, p)
            self._release_entity(o)
            self._release_entity(s)
        return True

    def remove_all(self, triples: Iterable[Triple]) -> int:
        """Remove many triples; returns the number actually removed."""
        return sum(1 for t in triples if self.remove(t))

    # -- type / subclass add/remove ------------------------------------

    def _add_type(self, triple: Triple) -> None:
        s, p, o = triple
        if isinstance(o, Literal):
            self._violation(f"type edge with literal object: {triple.n3()}")
            return
        self._acquire_entity(s)
        self._acquire_class(o)
        self._untyped.discard(s)
        self._type_pred_counts[p] += 1

    def _remove_type(self, triple: Triple) -> None:
        s, p, o = triple
        if isinstance(o, Literal):
            return  # was never classified
        if s in self._entities and not self._typed(s):
            self._untyped.add(s)
        _decrement(self._type_pred_counts, p)
        self._release_class(o)
        self._release_entity(s)

    def _add_subclass(self, triple: Triple) -> None:
        s, p, o = triple
        if isinstance(s, Literal) or isinstance(o, Literal):
            self._violation(f"subclass edge with literal endpoint: {triple.n3()}")
            return
        self._acquire_class(s)
        self._acquire_class(o)
        self._subclass_pred_counts[p] += 1

    def _remove_subclass(self, triple: Triple) -> None:
        s, p, o = triple
        if isinstance(s, Literal) or isinstance(o, Literal):
            return
        _decrement(self._subclass_pred_counts, p)
        self._release_class(o)
        self._release_class(s)

    # -- role reference counting ---------------------------------------

    def _acquire_entity(self, term: Term) -> None:
        self._entity_refs[term] += 1
        if term in self._classes:
            # Class role wins; keep the term out of the entity set.
            self._violation(f"term used both as class and entity: {term}")
            return
        if term not in self._entities:
            self._entities.add(term)
            if not self._typed(term):
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
                if not self._typed(term):
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
        objects = self.store.objects
        label = best_label(
            (p, o) for p in LABEL_PREDICATES for o in objects(s, p)
            if isinstance(o, Literal)
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
        return frozenset(self._relation_counts)

    @property
    def attribute_labels(self) -> FrozenSet[URI]:
        """The edge labels L_A."""
        return frozenset(self._attribute_counts)

    def has_relation_label(self, label: URI) -> bool:
        """O(1): does any stored R-edge carry this label?"""
        return label in self._relation_counts

    def relation_triples(self, label: Optional[URI] = None) -> Iterator[Triple]:
        """All R-edge triples, optionally restricted to one label."""
        return self._edges(self._relation_counts, label, literal=False)

    def attribute_triples(self, label: Optional[URI] = None) -> Iterator[Triple]:
        """All A-edge triples, optionally restricted to one label."""
        return self._edges(self._attribute_counts, label, literal=True)

    def _edges(self, counts: Dict[URI, int], label: Optional[URI], literal: bool):
        # A label may carry R- and A-edges alike: its POS entry holds both.
        labels = counts if label is None else [label] if label in counts else ()
        for p in labels:
            for s, o in self.store.access(p).pairs():
                if isinstance(o, Literal) == literal:
                    yield Triple(s, p, o)

    # ------------------------------------------------------------------
    # type / subclass structure
    # ------------------------------------------------------------------

    def _class_objects(self, term: Term, predicates: Iterable[URI]) -> List[Term]:
        """The non-literal objects of ``term``'s edges over ``predicates``
        (a type or subclass edge to a literal classifies nothing).  Callers
        pass the variants in use (the keys of ``_type_pred_counts`` /
        ``_subclass_pred_counts``), usually one, not every variant."""
        objects = self.store.objects
        return [
            o for p in predicates for o in objects(term, p) if not isinstance(o, Literal)
        ]

    def _typed(self, term: Term) -> bool:
        return bool(self._class_objects(term, self._type_pred_counts))

    def _instance_buckets(self, cls: Term) -> List[Iterable[Term]]:
        if isinstance(cls, Literal):
            return []
        subjects = self.store.subjects
        buckets = (subjects(p, cls) for p in self._type_pred_counts)
        return [bucket for bucket in buckets if bucket]

    def types_of(self, entity: Term) -> FrozenSet[Term]:
        """The classes an entity is directly typed with (may be empty)."""
        return frozenset(self._class_objects(entity, self._type_pred_counts))

    def instances_of(self, cls: Term) -> FrozenSet[Term]:
        """The entities directly typed with a class."""
        return frozenset().union(*self._instance_buckets(cls))

    def instance_count(self, cls: Term) -> int:
        """``len(instances_of(cls))`` without building the set unless two
        ``type`` variants both type instances of ``cls``."""
        buckets = self._instance_buckets(cls)
        return len(buckets[0]) if len(buckets) == 1 else len(set().union(*buckets))

    def superclasses_of(self, cls: Term) -> FrozenSet[Term]:
        """The direct superclasses of a class."""
        return frozenset(self._class_objects(cls, self._subclass_pred_counts))

    def subclass_pairs(self) -> Iterator[Tuple[Term, Term]]:
        """All direct ``(subclass, superclass)`` pairs, each once."""
        seen: Set[Tuple[Term, Term]] = set()
        store = self.store
        for p in store.predicates():
            if p not in SUBCLASS_PREDICATES:
                continue
            for pair in store.access(p).pairs():
                if not isinstance(pair[1], Literal) and pair not in seen:
                    seen.add(pair)
                    yield pair

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
        return tuple((p, o) for _, p, o in self.store.match(vertex) if p not in _SPECIAL)

    def incoming(self, vertex: Term) -> Tuple[Tuple[URI, Term], ...]:
        """Incoming (predicate, subject) pairs over R- and A-edges."""
        return tuple((p, s) for s, p, _ in self.store.match(obj=vertex) if p not in _SPECIAL)

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
            "relation_labels": len(self._relation_counts),
            "attribute_labels": len(self._attribute_counts),
            "relation_edges": sum(self._relation_counts.values()),
            "attribute_edges": sum(self._attribute_counts.values()),
            "untyped_entities": len(self._untyped),
        }

    def __repr__(self):
        s = self.stats()
        return (
            f"DataGraph(triples={s['triples']}, entities={s['entities']}, "
            f"classes={s['classes']}, values={s['values']})"
        )


def _decrement(counts: Dict[URI, int], key: URI) -> None:
    counts[key] -= 1
    if not counts[key]:
        del counts[key]
