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
counts (:class:`RoleLedger`) — a term is a class while any type/subclass
triple supports that role, an entity while it occurs in an entity position
and is not a class, and so on.  A loaded bundle's graph
(:class:`repro.storage.graph_view.MmapDataGraph`) counts an update batch's
roles with the same ledger.  This is what lets the offline indexes (keyword
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
from typing import (
    Callable, Dict, FrozenSet, Iterable, Iterator, List, Optional, Sequence, Set, Tuple,
)

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


#: The three role counts of a term (:class:`RoleLedger`), by index.
CLS, TYPED, PLAIN = range(3)
_NO_ROLES = (0, 0, 0)

# Where a term's counts place it: none, class, typed entity, untyped
# entity, value; and the vertex kind of each place.
_NONE, _CLASS, _TYPED_ENTITY, _UNTYPED_ENTITY, _VALUE = range(5)
_KIND_OF_PLACE = (
    None, VertexKind.CLASS, VertexKind.ENTITY, VertexKind.ENTITY, VertexKind.VALUE
)


def _place(counts: Sequence[int], literal: bool) -> int:
    cls, typed, plain = counts
    if literal:  # only ever plain
        return _VALUE if plain else _NONE
    if cls:
        return _CLASS  # class wins
    if typed:
        return _TYPED_ENTITY
    return _UNTYPED_ENTITY if plain else _NONE


class RoleLedger:
    """How many live triples give each term each role Definition 1's
    classification reads, and the vertex sets the counts derive.

    A term's counts are ``cls``, ``typed`` and ``plain``: the triples that
    make it a class (the object of a ``type`` edge, either end of a
    ``subclass`` edge), the ``type`` edges that type it, and the R- and
    A-edges it is an end of.  A literal is a V-vertex while ``plain``;
    any other term is a C-vertex while ``cls`` (class wins), else an
    E-vertex while ``typed`` or ``plain``, untyped without ``typed``.  A
    ``type`` or ``subclass`` edge to a literal gives no role.

    :meth:`account` counts one triple in or out, a role at a time in the
    order ``DataGraph`` has always acquired them, and returns the
    Definition 1 conflicts an added triple commits, each judged on the
    kinds just before its step.

    A constructed graph's ledger holds every term and has no ``probe``:
    a term it does not hold has no role.  A loaded bundle's holds the
    terms of one update batch: ``probe(term)`` reads a term's
    ``(cls, typed, plain)`` from the runs the first time the batch
    touches it, and :meth:`stats_change` is what the batch did to the
    vertex counts.
    """

    def __init__(self, probe: Optional[Callable[[Term], Tuple[int, int, int]]] = None):
        self._probe = probe
        #: ``[cls, typed, plain]`` of each held term.
        self._counts: Dict[Term, List[int]] = {}
        #: The counts each probed term came in with.
        self._probed: Dict[Term, Tuple[int, int, int]] = {}
        self.classes: Set[Term] = set()
        self.entities: Set[Term] = set()
        self.values: Set[Literal] = set()
        self.untyped: Set[Term] = set()
        #: The sets a term is in, by place.
        self._sets = (
            (), (self.classes,), (self.entities,), (self.entities, self.untyped),
            (self.values,),
        )

    def counts(self, term: Term) -> Tuple[int, int, int]:
        """``(cls, typed, plain)``."""
        return tuple(self._held(term))

    def kind(self, term: Term) -> Optional[VertexKind]:
        return _KIND_OF_PLACE[_place(self._held(term), isinstance(term, Literal))]

    def _held(self, term: Term) -> Sequence[int]:
        counts = self._counts.get(term)
        if counts is None:
            if self._probe is None:
                return _NO_ROLES
            counts = self._probed[term] = self._probe(term)
            counts = self._hold(term, counts)
        return counts

    def _hold(self, term: Term, counts: Sequence[int]) -> List[int]:
        held = self._counts[term] = list(counts)
        for members in self._sets[_place(held, isinstance(term, Literal))]:
            members.add(term)
        return held

    def account(self, triple: Triple, sign: int) -> List[str]:
        """Count ``triple`` in (``sign`` +1) or out (-1); the conflicts
        it commits, when added."""
        s, p, o = triple.subject, triple.predicate, triple.object
        if p in _SPECIAL:
            if isinstance(o, Literal):
                if sign < 0:
                    return []
                edge = "type edge with literal object" if p in TYPE_PREDICATES else (
                    "subclass edge with literal endpoint"
                )
                return [f"{edge}: {triple.n3()}"]
            first, second, literal = (TYPED if p in TYPE_PREDICATES else CLS), CLS, False
        else:
            first, second, literal = PLAIN, PLAIN, isinstance(o, Literal)
        if sign < 0:
            self._step(s, first, -1, False)
            self._step(o, second, -1, literal)
            return []
        conflicts = []
        for term, role, before in (
            (s, first, self._step(s, first, +1, False)),
            (o, second, self._step(o, second, +1, literal)),
        ):
            if role == CLS:
                if before == _TYPED_ENTITY or before == _UNTYPED_ENTITY:
                    conflicts.append(f"term used both as entity and class: {term}")
            elif before == _CLASS:
                conflicts.append(f"term used both as class and entity: {term}")
        return conflicts

    def _step(self, term: Term, role: int, change: int, literal: bool) -> int:
        """Move ``term``'s ``role`` count by ``change``; returns its place
        before."""
        counts = self._counts.get(term)
        if counts is None:
            counts = self._held(term)
            if counts is _NO_ROLES:
                counts = self._counts[term] = [0, 0, 0]
        before = _place(counts, literal)
        counts[role] += change
        after = _place(counts, literal)
        if after != before:
            for members in self._sets[before]:
                members.discard(term)
            for members in self._sets[after]:
                members.add(term)
            if after == _NONE and self._probe is None:
                del self._counts[term]  # every term is held: none is no entry
        return before

    def stats(self) -> Dict[str, int]:
        """The vertex counts of ``DataGraph.stats``, over the held terms."""
        return {
            "entities": len(self.entities),
            "classes": len(self.classes),
            "values": len(self.values),
            "untyped_entities": len(self.untyped),
        }

    def stats_change(self) -> Dict[str, int]:
        """:meth:`stats` now minus :meth:`stats` when each term was probed."""
        then = RoleLedger()
        for term, counts in self._probed.items():
            then._hold(term, counts)
        now, then = self.stats(), then.stats()
        return {name: now[name] - then[name] for name in now}


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
        :attr:`conflicts`, each message once.
    """

    def __init__(self, triples: Optional[Iterable[Triple]] = None, strict: bool = False):
        self.strict = strict
        #: The only per-triple index: the graph's accessors probe it, and
        #: an engine over this graph executes its queries on it.
        self.store = TripleStore()
        # The triples in order of first arrival (dict keys, O(1) remove).
        self._triples: Dict[Triple, None] = {}

        # Role counts of every term, and the vertex sets they derive.
        self._roles = RoleLedger()

        # R- and A-edges per label: the labels L_R / L_A are the keys.
        self._relation_counts: Dict[URI, int] = defaultdict(int)
        self._attribute_counts: Dict[URI, int] = defaultdict(int)

        # Labels: subject -> its derivation.best_label.
        self._labels: Dict[Term, str] = {}

        # Which concrete type/subclass predicate variants the data uses,
        # so generated queries stay evaluable against this graph.
        self._type_pred_counts: Dict[URI, int] = defaultdict(int)
        self._subclass_pred_counts: Dict[URI, int] = defaultdict(int)

        # Definition 1 conflict messages, first occurrence first.
        self._conflicts: Dict[str, None] = {}

        if triples is not None:
            for t in triples:
                self.add(t)

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------

    def add(self, triple: Triple) -> bool:
        """Add a triple; returns False if it was already present.

        In strict mode, the first Definition 1 violation raises
        :class:`GraphIntegrityError` and leaves the graph and its store
        exactly as they were.
        """
        if triple in self._triples:
            return False
        conflicts = self._roles.account(triple, +1)
        if conflicts:
            if self.strict:
                self._roles.account(triple, -1)
                raise GraphIntegrityError(conflicts[0])
            self._conflicts.update(dict.fromkeys(conflicts))
        # Stored first: the label update below reads the store.
        self.store.add(triple)
        self._triples[triple] = None
        self._count_edge(triple, +1)
        return True

    def add_all(self, triples: Iterable[Triple]) -> int:
        """Add many triples; returns the number actually inserted."""
        return sum(1 for t in triples if self.add(t))

    def remove(self, triple: Triple) -> bool:
        """Remove a triple; returns False if it was not present.

        The derived classification is unwound incrementally: roles lose one
        count each, and a term whose class role disappears falls back to
        being an entity if entity-positioned triples still mention it.
        """
        if triple not in self._triples:
            return False
        # Unstored first: the label update below reads the store.
        self.store.remove(triple)
        del self._triples[triple]
        self._roles.account(triple, -1)
        self._count_edge(triple, -1)
        return True

    def remove_all(self, triples: Iterable[Triple]) -> int:
        """Remove many triples; returns the number actually removed."""
        return sum(1 for t in triples if self.remove(t))

    def effective(
        self, adds: Iterable[Triple], removes: Iterable[Triple]
    ) -> Tuple[List[Triple], List[Triple]]:
        """An update batch's triples that toggle, each once: the absent adds,
        and the present removes the batch does not re-add (removes go first)."""
        triples, adds = self._triples, dict.fromkeys(adds)
        return (
            [t for t in adds if t not in triples],
            [t for t in dict.fromkeys(removes) if t in triples and t not in adds],
        )

    def apply(self, adds: Sequence[Triple], removes: Sequence[Triple]) -> None:
        """Apply a batch :meth:`effective` returned: removes, then adds.
        All or nothing: if an add is rejected (strict mode), the applied
        prefix is rolled back before the error propagates."""
        applied_removes: List[Triple] = []
        applied_adds: List[Triple] = []
        try:
            for t in removes:
                self.remove(t)
                applied_removes.append(t)
            for t in adds:
                self.add(t)
                applied_adds.append(t)
        except Exception:
            for t in reversed(applied_adds):
                self.remove(t)
            for t in reversed(applied_removes):
                self.add(t)
            raise

    def _count_edge(self, triple: Triple, sign: int) -> None:
        """The per-predicate counts and the subject's label, for one
        stored (+1) or unstored (-1) triple."""
        p, o = triple.predicate, triple.object
        literal = isinstance(o, Literal)
        if p in _SPECIAL:
            if literal:
                return
            counts = (
                self._type_pred_counts if p in TYPE_PREDICATES
                else self._subclass_pred_counts
            )
        elif literal:
            counts = self._attribute_counts
            if label_key(p, o) is not None:
                self._relabel(triple.subject)
        else:
            counts = self._relation_counts
        counts[p] += sign
        if not counts[p]:
            del counts[p]

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
        return self._roles.kind(term)

    @property
    def conflicts(self) -> List[str]:
        """The distinct Definition 1 conflicts the graph resolved, in
        order of first occurrence.  A message stays once recorded: a
        remove does not take it back, and a re-add does not repeat it."""
        return list(self._conflicts)

    @property
    def classes(self) -> FrozenSet[Term]:
        """The C-vertices."""
        return frozenset(self._roles.classes)

    @property
    def entities(self) -> FrozenSet[Term]:
        """The E-vertices."""
        return frozenset(self._roles.entities)

    @property
    def values(self) -> FrozenSet[Literal]:
        """The V-vertices (shared literal nodes)."""
        return frozenset(self._roles.values)

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
        return frozenset(self._roles.untyped)

    @property
    def untyped_entity_count(self) -> int:
        """O(1) count of untyped entities (the ``Thing`` aggregation)."""
        return len(self._roles.untyped)

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
        roles = self._roles
        return {
            "triples": len(self._triples),
            "entities": len(roles.entities),
            "classes": len(roles.classes),
            "values": len(roles.values),
            "relation_labels": len(self._relation_counts),
            "attribute_labels": len(self._attribute_counts),
            "relation_edges": sum(self._relation_counts.values()),
            "attribute_edges": sum(self._attribute_counts.values()),
            "untyped_entities": len(roles.untyped),
        }

    def __repr__(self):
        s = self.stats()
        return (
            f"DataGraph(triples={s['triples']}, entities={s['entities']}, "
            f"classes={s['classes']}, values={s['values']})"
        )
