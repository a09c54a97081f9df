"""A loaded bundle's data graph: Definition 1 answered from the mapped runs.

Once a bundle is loaded, the data graph is needed only to maintain the
offline indexes under updates, and every per-term fact that path reads is
a count or a range over the live triples, which the
:class:`~repro.storage.mmap_tier.MmapTripleTier` already indexes three
ways.  So :class:`MmapDataGraph` holds no adjacency, refcounts or
buckets: it probes the tier, derives ``vertex_kind`` by Definition 1's
role rules (class wins, as in :class:`~repro.rdf.graph.DataGraph`, its
oracle) and keeps only O(1) state, by delta from the bundle header.

The runs are the only stored form of the triple set, so the graph
enumerates them: its triples come in the tier's order, not in the order
they arrived, and nothing it answers depends on that order (a label tie
goes to the smallest lexical form, :func:`repro.rdf.derivation.label_key`).
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterator, List, Optional, Set, Tuple

from repro.rdf.derivation import best_label, display_label
from repro.rdf.graph import _SPECIAL, DataGraph, GraphIntegrityError, VertexKind
from repro.rdf.namespace import LABEL_PREDICATES, SUBCLASS_PREDICATES, TYPE_PREDICATES
from repro.rdf.terms import Literal, Term, URI
from repro.rdf.triples import Triple

from repro.storage.mmap_tier import MmapTripleTier
_STAT_OF_KIND = {VertexKind.CLASS: "classes", VertexKind.ENTITY: "entities",
                 VertexKind.VALUE: "values"}


def _steps(triple: Triple) -> List[Tuple[Term, str]]:
    """The roles ``DataGraph.add`` acquires for a triple, in its order:
    ``ent`` / ``cls`` / ``val``, and ``typed`` for a type edge's subject.
    A type or subclass edge to a literal acquires none."""
    s, p, o = triple
    literal = isinstance(o, Literal)
    if p in TYPE_PREDICATES:
        return [] if literal else [(s, "ent"), (s, "typed"), (o, "cls")]
    if p in SUBCLASS_PREDICATES:
        return [] if literal else [(s, "cls"), (o, "cls")]
    return [(s, "ent"), (o, "val" if literal else "ent")]


class _Roles(dict):
    """The roles the live triples give one term, as ``DataGraph``'s
    refcounts would: ``cls``, ``typed``, ``plain`` (an end of an R- or
    A-edge), each probed on first lookup — as are the counts of rows with
    the term at either end (``out`` / ``into``) that can rule them out."""

    def __init__(self, graph: "MmapDataGraph", term: Term, predicates):
        super().__init__()
        self.graph, self.predicates = graph, predicates  # (type, subclass) keys
        self.key = graph.store.key_of(term)
        self.literal = isinstance(term, Literal)

    def __missing__(self, role: str) -> int:
        graph, key = self.graph, self.key
        count = graph.store.count_keys
        types, subclasses = self.predicates
        special = types + subclasses
        if role == "out":
            found = 0 if self.literal else count(key, None, None)
        elif role == "into":
            found = count(None, None, key)
        elif role == "cls":
            found = any(count(None, p, key) for p in special) or bool(
                self["out"]
                and any(count(key, p, None) for p in subclasses)
                and graph._objects(key, subclasses, literal=False)
            )
        elif role == "typed":
            found = bool(self["out"] and graph._objects(key, types, literal=False))
        else:  # plain
            into, out = self["into"], self["out"]
            found = bool(
                into and into > sum(count(None, p, key) for p in special)
                or out and out > sum(count(key, p, None) for p in special)
            )
        self[role] = found
        return found

    def kind(self, gained=()) -> Optional[VertexKind]:
        """The term's vertex kind, with the roles ``gained`` added."""
        if self.literal:
            return VertexKind.VALUE if "val" in gained or self["plain"] else None
        if "cls" in gained or self["cls"]:
            return VertexKind.CLASS
        if "ent" in gained or self["typed"] or self["plain"]:
            return VertexKind.ENTITY
        return None


class MmapDataGraph:
    """The data graph of a loaded bundle, served from its triple tier;
    the rest comes from the header (its ``graph`` block, the two count
    sections)."""

    edge_kind = DataGraph.edge_kind
    outgoing = DataGraph.outgoing
    incoming = DataGraph.incoming
    preferred_type_predicate = DataGraph.preferred_type_predicate
    preferred_subclass_predicate = DataGraph.preferred_subclass_predicate
    add_all = DataGraph.add_all
    remove_all = DataGraph.remove_all

    def __init__(self, store: MmapTripleTier, header: Dict, type_pred_counts: Dict,
                 subclass_pred_counts: Dict):
        self.store = store
        self.strict = header["strict"]
        self.conflicts = list(header["conflicts"])
        self._stats = dict(header["stats"])
        self._type_pred_counts = dict(type_pred_counts)
        self._subclass_pred_counts = dict(subclass_pred_counts)
        # Predicate keys: the term table never changes, so neither do they.
        self._type = [store.key_of(p) for p in TYPE_PREDICATES]
        self._subclass = [store.key_of(p) for p in SUBCLASS_PREDICATES]

    # -- probes over the tier, in its key space -------------------------

    def _roles(self, *terms: Term) -> Dict[Term, _Roles]:
        # The type / subclass predicates that can have live rows: those the
        # term table holds, and the others while the delta has rows of them.
        count = self.store.count_keys
        predicates = tuple(
            [p for p in keys if type(p) is int or count(None, p, None)]
            for keys in (self._type, self._subclass)
        )
        return {term: _Roles(self, term, predicates) for term in terms}

    def _objects(self, key, predicates, literal: bool) -> List:
        """Keys of the live (non-)literal objects of ``key`` over ``predicates``."""
        store = self.store
        return [
            o
            for p in predicates
            for o in store.access(p, s=key).objects(key)
            if store.is_literal_key(o) == literal
        ]

    def _has_edge(self, p: URI, literal: bool) -> bool:
        """Is there a live ``p`` A-edge (to a literal) / R-edge (not)?"""
        store = self.store
        keys = store.object_keys(store.key_of(p))
        return p not in _SPECIAL and any(store.is_literal_key(o) == literal for o in keys)

    # -- mutation: the tier's, plus the header's counters by delta -------

    def add(self, triple: Triple) -> bool:
        """Add a triple; False if it is present.  In strict mode the first
        Definition 1 conflict it would record raises, before anything
        changes."""
        if triple in self.store:
            return False
        delta, conflicts = self._account(triple)
        if conflicts and self.strict:
            raise GraphIntegrityError(conflicts[0])
        self.store.add(triple)
        self.conflicts.extend(conflicts)
        self._apply(triple, delta, +1)
        return True

    def remove(self, triple: Triple) -> bool:
        """Remove a triple; False if it is absent."""
        if not self.store.remove(triple):
            return False
        self._apply(triple, self._account(triple)[0], -1)
        return True

    def _account(self, triple: Triple) -> Tuple[Dict[str, int], List[str]]:
        """Probed in the graph without the triple: ``stats()`` with it
        minus ``stats()`` without it, and the conflicts ``DataGraph.add``
        records for it (each role step judged on the kinds before it)."""
        s, p, o = triple
        roles = self._roles(s, o)
        delta = dict.fromkeys(self._stats, 0)
        delta["triples"] = 1
        conflicts: List[str] = []
        if p in _SPECIAL and isinstance(o, Literal):
            edge = "type edge with literal object" if p in TYPE_PREDICATES else (
                "subclass edge with literal endpoint"
            )
            conflicts.append(f"{edge}: {triple.n3()}")
        gains: Dict[Term, Set[str]] = {}
        for term, role in _steps(triple):
            kind = roles[term].kind(gains.setdefault(term, set()))
            if role == "ent" and kind is VertexKind.CLASS:
                conflicts.append(f"term used both as class and entity: {term}")
            elif role == "cls" and kind is VertexKind.ENTITY:
                conflicts.append(f"term used both as entity and class: {term}")
            gains[term].add(role)
        for term, gained in gains.items():
            role = roles[term]
            for extra, sign in ((gained, 1), ((), -1)):
                kind = role.kind(extra)
                if kind is not None:
                    delta[_STAT_OF_KIND[kind]] += sign
                if kind is VertexKind.ENTITY and not ("typed" in extra or role["typed"]):
                    delta["untyped_entities"] += sign
        if p not in _SPECIAL:
            edge = "attribute" if isinstance(o, Literal) else "relation"
            delta[f"{edge}_edges"] = 1
            delta[f"{edge}_labels"] = int(not self._has_edge(p, edge == "attribute"))
        return delta, conflicts

    def _apply(self, triple: Triple, delta: Dict[str, int], sign: int) -> None:
        for name, change in delta.items():
            self._stats[name] += sign * change
        s, p, o = triple
        typed = p in TYPE_PREDICATES
        if (typed or p in SUBCLASS_PREDICATES) and not isinstance(o, Literal):
            counts = self._type_pred_counts if typed else self._subclass_pred_counts
            counts[p] = counts.get(p, 0) + sign
            if not counts[p]:
                del counts[p]

    # -- per-term facts --------------------------------------------------

    def __len__(self) -> int:
        return len(self.store)

    def __contains__(self, triple: Triple) -> bool:
        return triple in self.store

    def vertex_kind(self, term: Term) -> Optional[VertexKind]:
        return self._roles(term)[term].kind()

    def types_of(self, entity: Term) -> FrozenSet[Term]:
        keys = self._objects(self.store.key_of(entity), self._type, literal=False)
        return frozenset(map(self.store.term_of, keys))

    def instances_of(self, cls: Term) -> FrozenSet[Term]:
        if isinstance(cls, Literal):  # a type edge to a literal types nothing
            return frozenset()
        store = self.store
        key = store.key_of(cls)
        subjects = (s for p in self._type for s in store.access(p, o=key).subjects(key))
        return frozenset(map(store.term_of, subjects))

    def instance_count(self, cls: Term) -> int:
        key = self.store.key_of(cls)
        counts = [self.store.count_keys(None, p, key) for p in self._type]
        if isinstance(cls, Literal) or sum(map(bool, counts)) > 1:
            return len(self.instances_of(cls))  # none, or typed twice over
        return sum(counts)

    def superclasses_of(self, cls: Term) -> FrozenSet[Term]:
        keys = self._objects(self.store.key_of(cls), self._subclass, literal=False)
        return frozenset(map(self.store.term_of, keys))

    def has_relation_label(self, label: URI) -> bool:
        return self._has_edge(label, literal=False)

    def label_of(self, term: Term) -> str:
        """As ``DataGraph.label_of``: the term's ``best_label`` over its
        live label-predicate rows."""
        store = self.store
        key = store.key_of(term)
        label = best_label(
            (p, store.term_of(o))
            for p in LABEL_PREDICATES
            for o in self._objects(key, [store.key_of(p)], literal=True)
        )
        return display_label(term, label)

    # -- O(1) state --------------------------------------------------------

    def stats(self) -> Dict[str, int]:
        return dict(self._stats)

    @property
    def untyped_entity_count(self) -> int:
        return self._stats["untyped_entities"]

    # -- whole-graph enumerations: streamed, never kept --------------------

    def __iter__(self) -> Iterator[Triple]:
        """The tier's order, not ``DataGraph``'s: the live base rows in
        SPO-run order (a revived one in its place), then the delta's."""
        return self.store.match()

    @property
    def triples(self) -> Tuple[Triple, ...]:
        return tuple(self)

    def __getattr__(self, name: str):
        # The other enumerations (entities, relation_triples, ...), which
        # no maintenance step reads: the live triples through the
        # constructor, on each call.
        if name.startswith("_") or not hasattr(DataGraph, name):
            raise AttributeError(name)
        return getattr(DataGraph(self), name)
