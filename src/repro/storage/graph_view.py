"""A loaded bundle's data graph: Definition 1 answered from the mapped runs.

Once a bundle is loaded, the data graph is needed only to maintain the
offline indexes under updates, and every per-term fact that path reads is
a count or a range over the live triples, which the
:class:`~repro.storage.mmap_tier.MmapTripleTier` already indexes three
ways.  So :class:`MmapDataGraph` holds no adjacency, refcounts or
buckets, and keeps only O(1) state by delta from the bundle header.

An update batch is accounted once.  :meth:`MmapDataGraph.apply` counts
the batch's role changes in a :class:`~repro.rdf.graph.RoleLedger` — the
routine a constructed :class:`~repro.rdf.graph.DataGraph`, its oracle,
keeps its refcounts with — probing each touched term's roles from the
runs the first time the batch touches it, and walking the batch a triple
at a time for the conflicts and the ``stats()`` delta before the tier
changes.  The ledger then answers ``vertex_kind`` for the batch's terms
for the rest of the batch.  A term resolves to its tier key through the
term table, which remembers the terms it found and its recent misses.

The runs are the only stored form of the triple set, so the graph
enumerates them: its triples come in the tier's order, not in the order
they arrived, and nothing it answers depends on that order (a label tie
goes to the smallest lexical form, :func:`repro.rdf.derivation.label_key`).
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.rdf.derivation import best_label, display_label
from repro.rdf.graph import (
    _SPECIAL, DataGraph, GraphIntegrityError, RoleLedger, VertexKind,
)
from repro.rdf.namespace import LABEL_PREDICATES, SUBCLASS_PREDICATES, TYPE_PREDICATES
from repro.rdf.terms import Literal, Term, URI
from repro.rdf.triples import Triple
from repro.storage.mmap_tier import MmapTripleTier


def _nonliteral(objects: List[Term]) -> int:
    return sum(not isinstance(o, Literal) for o in objects)


class MmapDataGraph:
    """The data graph of a loaded bundle, served from its triple tier;
    the rest comes from the header (its ``graph`` block, the two count
    sections)."""

    edge_kind = DataGraph.edge_kind
    conflicts = DataGraph.conflicts
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
        self._conflicts = dict.fromkeys(header["conflicts"])
        self._stats = dict(header["stats"])
        self._type_pred_counts = dict(type_pred_counts)
        self._subclass_pred_counts = dict(subclass_pred_counts)
        self._new_batch()

    def _new_batch(self) -> None:
        #: The roles of the terms the batch touched, counted through it.
        self._roles = RoleLedger(self._probe)
        #: The type / subclass predicates with live rows, until a mutation.
        self._special: Optional[Tuple[List[URI], List[URI]]] = None

    # -- probes over the tier -------------------------------------------

    def _live_special(self) -> Tuple[List[URI], List[URI]]:
        """The type and the subclass predicates that can have live rows:
        those the term table holds, and the others while the delta has
        rows of them."""
        if self._special is None:
            count, key = self.store.count_keys, self.store.key_of
            self._special = tuple(
                [p for p in predicates if type(key(p)) is int or count(None, key(p), None)]
                for predicates in (TYPE_PREDICATES, SUBCLASS_PREDICATES)
            )
        return self._special

    def _objects(self, term: Term, predicates, literal: bool = False) -> List[Term]:
        """The live (non-)literal objects of ``term`` over ``predicates``."""
        return [
            o for p in predicates for _, _, o in self.store.match(term, p)
            if isinstance(o, Literal) == literal
        ]

    def _probe(self, term: Term) -> Tuple[int, int, int]:
        """The term's :class:`RoleLedger` counts, read from the live rows."""
        store = self.store
        count, key, k = store.count_keys, store.key_of, store.key_of(term)
        types, subclasses = self._live_special()
        into = count(None, None, k)
        special_into = sum(count(None, key(p), k) for p in types + subclasses) if into else 0
        if isinstance(term, Literal):  # never a subject, never a class
            return (0, 0, into - special_into)
        out = count(k, None, None)
        typing, subclassing = (
            [o for p in predicates for _, _, o in store.match(term, p)] if out else []
            for predicates in (types, subclasses)
        )
        return (
            special_into + _nonliteral(subclassing),
            _nonliteral(typing),
            into - special_into + out - len(typing) - len(subclassing),
        )

    def _edge_count(self, p: URI, literal: bool, cap: int) -> int:
        """The live ``p`` A-edges (to a literal) / R-edges (not), counted
        up to ``cap``."""
        if p in _SPECIAL:
            return 0
        store, found = self.store, 0
        for o in store.object_keys(store.key_of(p)):
            if store.is_literal_key(o) == literal:
                found += 1
                if found == cap:
                    break
        return found

    # -- mutation: one batch accounted once --------------------------------

    def effective(
        self, adds: Iterable[Triple], removes: Iterable[Triple]
    ) -> Tuple[List[Triple], List[Triple]]:
        """As ``DataGraph.effective``; starts a batch."""
        self._new_batch()
        store, adds = self.store, dict.fromkeys(adds)
        return (
            [t for t in adds if t not in store],
            [t for t in dict.fromkeys(removes) if t in store and t not in adds],
        )

    def apply(self, adds: Sequence[Triple], removes: Sequence[Triple]) -> None:
        """Apply a batch :meth:`effective` returned: removes, then adds.

        The batch is accounted before anything changes: the batch's
        :class:`RoleLedger` probes each term it touches once and walks
        its role changes a triple at a time, as a ``DataGraph`` would, for
        the conflicts — in strict mode the first one raises, and nothing
        has changed — and the ``stats()`` delta.  Then the tier takes the
        triples."""
        roles = RoleLedger(self._probe)
        for t in removes:
            roles.account(t, -1)
        conflicts = [c for t in adds for c in roles.account(t, +1)]
        if conflicts and self.strict:
            raise GraphIntegrityError(conflicts[0])
        delta = self._edge_delta(adds, removes)
        delta.update(roles.stats_change())

        store = self.store
        for t in removes:
            store.remove(t)
        for t in adds:
            store.add(t)
        # The ledger holds the rest of the batch's vertex kinds.
        self._roles, self._special = roles, None
        self._conflicts.update(dict.fromkeys(conflicts))
        for name, change in delta.items():
            self._stats[name] += change
        for sign, triples in ((-1, removes), (1, adds)):
            for _, p, o in triples:
                if p in _SPECIAL and not isinstance(o, Literal):
                    counts = (
                        self._type_pred_counts if p in TYPE_PREDICATES
                        else self._subclass_pred_counts
                    )
                    counts[p] = counts.get(p, 0) + sign
                    if not counts[p]:
                        del counts[p]

    def _edge_delta(self, adds: Sequence[Triple], removes: Sequence[Triple]) -> Dict[str, int]:
        """The batch's change to the triple, edge and edge-label counts."""
        delta = dict.fromkeys(self._stats, 0)
        delta["triples"] = len(adds) - len(removes)
        net: Dict[Tuple[URI, bool], int] = {}
        for sign, triples in ((-1, removes), (1, adds)):
            for _, p, o in triples:
                if p not in _SPECIAL:
                    literal = isinstance(o, Literal)
                    net[p, literal] = net.get((p, literal), 0) + sign
        for (p, literal), change in net.items():
            edge = "attribute" if literal else "relation"
            delta[f"{edge}_edges"] += change
            # Enough rows to tell whether the label outlives the batch.
            had = self._edge_count(p, literal, cap=1 - change if change < 0 else 1)
            delta[f"{edge}_labels"] += (had + change > 0) - (had > 0)
        return delta

    def add(self, triple: Triple) -> bool:
        """Add a triple; False if it is present.  In strict mode the first
        Definition 1 conflict it would record raises, before anything
        changes."""
        adds, _ = self.effective([triple], ())
        self.apply(adds, ())
        return bool(adds)

    def remove(self, triple: Triple) -> bool:
        """Remove a triple; False if it is absent."""
        _, removes = self.effective((), [triple])
        self.apply((), removes)
        return bool(removes)

    # -- per-term facts --------------------------------------------------

    def __len__(self) -> int:
        return len(self.store)

    def __contains__(self, triple: Triple) -> bool:
        return triple in self.store

    def vertex_kind(self, term: Term) -> Optional[VertexKind]:
        return self._roles.kind(term)

    def types_of(self, entity: Term) -> FrozenSet[Term]:
        return frozenset(self._objects(entity, self._live_special()[0]))

    def instances_of(self, cls: Term) -> FrozenSet[Term]:
        if isinstance(cls, Literal):  # a type edge to a literal types nothing
            return frozenset()
        types = self._live_special()[0]
        return frozenset(s for p in types for s, _, _ in self.store.match(None, p, cls))

    def instance_count(self, cls: Term) -> int:
        store = self.store
        key, count = store.key_of(cls), store.count_keys
        counts = [count(None, store.key_of(p), key) for p in self._live_special()[0]]
        if isinstance(cls, Literal) or sum(map(bool, counts)) > 1:
            return len(self.instances_of(cls))  # none, or typed twice over
        return sum(counts)

    def superclasses_of(self, cls: Term) -> FrozenSet[Term]:
        return frozenset(self._objects(cls, self._live_special()[1]))

    def has_relation_label(self, label: URI) -> bool:
        return self._edge_count(label, literal=False, cap=1) > 0

    def label_of(self, term: Term) -> str:
        """As ``DataGraph.label_of``: the term's ``best_label`` over its
        live label-predicate rows."""
        label = best_label(
            (p, o) for p in LABEL_PREDICATES for o in self._objects(term, [p], literal=True)
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
