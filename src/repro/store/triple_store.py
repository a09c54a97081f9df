"""An in-memory triple store indexed for every access pattern.

Maintains the six lookup shapes a conjunctive-query evaluator needs —
``(s ? ?)``, ``(? p ?)``, ``(? ? o)``, ``(s p ?)``, ``(? p o)``, ``(s ? o)`` —
via three nested hash indexes (SPO, POS, OSP), mirroring the index layout of
RDF engines such as Jena/Sesame the paper names as its storage substrate.
The query evaluator joins through one atom's access path at a time
(:meth:`TripleStore.access`): four probes, each a lookup in these nests.
A constructed :class:`~repro.rdf.graph.DataGraph` holds its triples in
one of these stores and answers its adjacency, edge, type and subclass
accessors through :meth:`match`, :meth:`access`, :meth:`objects` and
:meth:`subjects`, so an engine keeps each triple once.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, Iterable, Iterator, Optional, Tuple

from repro.rdf.terms import Literal, Term, URI
from repro.rdf.triples import Triple

#: Leaves are insertion-ordered dicts used as sets, so an enumeration
#: follows the order the triples came in, never the hash seed.
_Index = Dict[Term, Dict[Term, Dict[Term, None]]]


def _nested() -> _Index:
    return defaultdict(lambda: defaultdict(dict))


def ill_typed_pattern(subject: Optional[Term], predicate: Optional[Term]) -> bool:
    """True when a match pattern can never hold in any store.

    A literal in subject position or a non-URI predicate is not an error
    — joins routinely probe with values bound from other atoms — but it
    matches nothing.  Every store tier (hash-indexed, mmap)
    applies the same guard so their answers stay identical.
    """
    return isinstance(subject, Literal) or (
        predicate is not None and not isinstance(predicate, URI)
    )


class _HashAccess:
    """One query atom's access path over the hash nests
    (:meth:`TripleStore.access`): the four probes the evaluator joins
    with, one of which each join depth keeps.  A probe with an ill-typed
    key (a literal bound from an object position, probed as a subject)
    finds no entry; no :class:`Triple` is ever constructed."""

    __slots__ = ("_p", "_spo", "_by_object")

    def __init__(self, store: "TripleStore", p: Term):
        self._p = p
        self._spo = store._spo
        self._by_object = store._pos.get(p, {})

    def has(self, s: Term, o: Term) -> bool:
        """Is ``(s, p, o)`` stored?"""
        return s in self._by_object.get(o, ())

    def objects(self, s: Term) -> Iterable[Term]:
        """Every ``o`` with ``(s, p, o)`` stored."""
        return self._spo.get(s, {}).get(self._p, ())

    def subjects(self, o: Term) -> Iterable[Term]:
        """Every ``s`` with ``(s, p, o)`` stored."""
        return self._by_object.get(o, ())

    def pairs(self) -> Iterator[Tuple[Term, Term]]:
        """``(s, o)`` of every stored triple with predicate ``p``."""
        return ((s, o) for o, subjects in self._by_object.items() for s in subjects)


class TripleStore:
    """Triple storage with SPO/POS/OSP hash indexes.

    Each constructed :class:`~repro.rdf.graph.DataGraph` owns one
    (``graph.store``) and is a view over it: the graph classifies what the store holds (for
    index construction and maintenance), the store retrieves it (for query
    processing), and a loaded bundle's delta overlay keeps one of its own.

    >>> store = TripleStore()
    >>> _ = store.add(Triple(URI("e:a"), URI("e:p"), URI("e:b")))
    >>> store.count(None, URI("e:p"), None)
    1
    """

    def __init__(self, triples: Optional[Iterable[Triple]] = None):
        self._spo: _Index = _nested()
        self._pos: _Index = _nested()
        self._osp: _Index = _nested()
        self._size = 0
        if triples is not None:
            self.add_all(triples)

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------

    def add(self, triple: Triple) -> bool:
        """Insert a triple; returns False if it was already stored."""
        s, p, o = triple
        objects = self._spo[s][p]
        if o in objects:
            return False
        objects[o] = None
        self._pos[p][o][s] = None
        self._osp[o][s][p] = None
        self._size += 1
        return True

    def add_all(self, triples: Iterable[Triple]) -> int:
        return sum(1 for t in triples if self.add(t))

    def remove(self, triple: Triple) -> bool:
        """Remove a triple from all three indexes; False if absent."""
        s, p, o = triple
        objects = self._spo.get(s, {}).get(p)
        if objects is None or o not in objects:
            return False
        del objects[o]
        if not objects:
            del self._spo[s][p]
            if not self._spo[s]:
                del self._spo[s]
        subjects = self._pos[p][o]
        del subjects[s]
        if not subjects:
            del self._pos[p][o]
            if not self._pos[p]:
                del self._pos[p]
        predicates = self._osp[o][s]
        del predicates[p]
        if not predicates:
            del self._osp[o][s]
            if not self._osp[o]:
                del self._osp[o]
        self._size -= 1
        return True

    def remove_all(self, triples: Iterable[Triple]) -> int:
        return sum(1 for t in triples if self.remove(t))

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return self._size

    def __contains__(self, triple: Triple) -> bool:
        s, p, o = triple
        return o in self._spo.get(s, {}).get(p, ())

    def match(
        self,
        subject: Optional[Term] = None,
        predicate: Optional[Term] = None,
        obj: Optional[Term] = None,
    ) -> Iterator[Triple]:
        """Iterate triples matching a pattern; ``None`` is a wildcard.

        Chooses the index that binds the most constants, so every pattern is
        answered without a full scan (except the all-wildcard pattern).

        Ill-typed constants — a literal in subject position, a non-URI
        predicate — match nothing rather than erroring
        (:func:`ill_typed_pattern`).
        """
        if ill_typed_pattern(subject, predicate):
            return
        s, p, o = subject, predicate, obj
        if s is not None and p is not None and o is not None:
            if Triple(s, p, o) in self:
                yield Triple(s, p, o)
            return
        if s is not None and p is not None:
            for obj_term in self._spo.get(s, {}).get(p, ()):
                yield Triple(s, p, obj_term)
            return
        if p is not None and o is not None:
            for subj in self._pos.get(p, {}).get(o, ()):
                yield Triple(subj, p, o)
            return
        if s is not None and o is not None:
            for pred in self._osp.get(o, {}).get(s, ()):
                yield Triple(s, pred, o)
            return
        if s is not None:
            for pred, objects in self._spo.get(s, {}).items():
                for obj_term in objects:
                    yield Triple(s, pred, obj_term)
            return
        if p is not None:
            for obj_term, subjects in self._pos.get(p, {}).items():
                for subj in subjects:
                    yield Triple(subj, p, obj_term)
            return
        if o is not None:
            for subj, preds in self._osp.get(o, {}).items():
                for pred in preds:
                    yield Triple(subj, pred, o)
            return
        for subj, po in self._spo.items():
            for pred, objects in po.items():
                for obj_term in objects:
                    yield Triple(subj, pred, obj_term)

    def count(
        self,
        subject: Optional[Term] = None,
        predicate: Optional[Term] = None,
        obj: Optional[Term] = None,
    ) -> int:
        """Exact cardinality of a pattern, computed from the indexes.

        Fully-indexed patterns are O(1)/O(bucket); this is what the join
        optimizer uses for selectivity estimates.
        """
        if ill_typed_pattern(subject, predicate):
            return 0
        s, p, o = subject, predicate, obj
        if s is not None and p is not None and o is not None:
            return 1 if Triple(s, p, o) in self else 0
        if s is not None and p is not None:
            return len(self._spo.get(s, {}).get(p, ()))
        if p is not None and o is not None:
            return len(self._pos.get(p, {}).get(o, ()))
        if s is not None and o is not None:
            return len(self._osp.get(o, {}).get(s, ()))
        if s is not None:
            return sum(len(objs) for objs in self._spo.get(s, {}).values())
        if p is not None:
            return sum(len(subs) for subs in self._pos.get(p, {}).values())
        if o is not None:
            return sum(len(preds) for preds in self._osp.get(o, {}).values())
        return self._size

    # ------------------------------------------------------------------
    # Lookup by key (the query evaluator's access path; here a key is
    # the term itself)
    # ------------------------------------------------------------------

    def key_of(self, term: Term) -> Term:
        return term

    def term_of(self, key: Term) -> Term:
        return key

    def count_keys(self, s: Optional[Term], p: Term, o: Optional[Term]) -> int:
        return self.count(s, p, o)

    def access(
        self, p: Term, s: Optional[Term] = None, o: Optional[Term] = None
    ) -> "_HashAccess":
        """The access path of one query atom with predicate ``p``.  The
        atom's constant ends (``s`` / ``o``) narrow nothing here: every
        probe is a dict lookup either way."""
        return _HashAccess(self, p)

    def objects(self, s: Term, p: Term) -> Iterable[Term]:
        """Every ``o`` with ``(s, p, o)`` stored: ``match(s, p)`` without
        building a triple per row, for the data graph's per-term reads."""
        return self._spo.get(s, {}).get(p, ())

    def subjects(self, p: Term, o: Term) -> Iterable[Term]:
        """Every ``s`` with ``(s, p, o)`` stored."""
        return self._pos.get(p, {}).get(o, ())

    def predicates(self) -> Iterator[Term]:
        """All distinct predicates."""
        yield from self._pos.keys()

    def predicate_cardinality(self, predicate: Term) -> int:
        """Number of triples with the given predicate."""
        return sum(len(subs) for subs in self._pos.get(predicate, {}).values())

    def __repr__(self):
        return f"TripleStore(size={self._size})"
