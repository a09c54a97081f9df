"""Conjunctive-query evaluation against a triple store (Definition 3).

One executor serves every store.  A query is compiled once — variables
become slots of one list, constants are resolved to the store's *keys* —
and joined by index nested loops in key space: the store scans a bound
predicate for ``(subject key, object key)`` pairs
(:meth:`~repro.store.triple_store.TripleStore.scan_keys`), and a
``Term`` is only built for the distinguished values of an answer that is
actually emitted.  What a key is belongs to the store: a term-table id
on the mmap tier, the term itself on :class:`TripleStore`.

Atoms are ordered most-selective-first, so highly selective constants
(the keyword constants of computed queries) prune the search early.  The
atom evaluated at join depth *d* is chosen with the first binding that
reaches that depth and kept for the rest of the query: one cardinality
count per remaining atom and depth, not per binding.

Answers follow Definition 3: a mapping of the distinguished variables such
that some extension to the existential variables embeds the whole query
pattern into the data.  Enumeration is lazy, and its order is the
store's: which answers a truncating ``limit`` keeps is unspecified.
"""

from __future__ import annotations

from itertools import islice
from typing import Dict, Hashable, Iterator, List, Optional, Tuple

from repro.query.conjunctive import ConjunctiveQuery
from repro.rdf.terms import Term, Variable
from repro.store.statistics import StoreStatistics


class Answer:
    """One answer: the distinguished variables and the terms they map to."""

    __slots__ = ("variables", "values")

    def __init__(self, variables: Tuple[Variable, ...], values: Tuple[Term, ...]):
        object.__setattr__(self, "variables", variables)
        object.__setattr__(self, "values", values)

    def __setattr__(self, name, value):  # pragma: no cover - guard
        raise AttributeError("Answer is immutable")

    def __getitem__(self, variable: Variable) -> Term:
        try:
            return self.values[self.variables.index(variable)]
        except ValueError:
            raise KeyError(variable) from None

    def as_dict(self) -> Dict[Variable, Term]:
        return dict(zip(self.variables, self.values))

    def __eq__(self, other):
        return (
            isinstance(other, Answer)
            and other.variables == self.variables
            and other.values == self.values
        )

    def __hash__(self):
        return hash((self.variables, self.values))

    def __repr__(self):
        pairs = ", ".join(f"{v}={t}" for v, t in zip(self.variables, self.values))
        return f"Answer({pairs})"


class QueryEvaluator:
    """Evaluates conjunctive queries over a triple store."""

    def __init__(self, store):
        self._store = store
        self._stats = StoreStatistics(store)

    def invalidate_statistics(self) -> None:
        """Drop cached selectivity stats after the store's contents change."""
        self._stats.invalidate()

    def evaluate(
        self,
        query: ConjunctiveQuery,
        limit: Optional[int] = None,
    ) -> List[Answer]:
        """All (or the first ``limit``) distinct answers to the query."""
        return list(islice(self.iter_answers(query), limit))

    def iter_answers(self, query: ConjunctiveQuery) -> Iterator[Answer]:
        """Lazily yield distinct answers — supports the paper's 'process the
        top queries until ≥10 answers are found' loop without full evaluation.
        """
        distinguished = query.distinguished
        variables = query.variables
        picks = [variables.index(v) for v in distinguished]
        term_of = self._store.term_of
        seen = set()
        for slots in self._solve(query):
            keys = tuple([slots[i] for i in picks])
            if keys not in seen:
                seen.add(keys)
                yield Answer(distinguished, tuple(map(term_of, keys)))

    def count(self, query: ConjunctiveQuery) -> int:
        """Number of distinct answers."""
        return sum(1 for _ in self.iter_answers(query))

    def has_answer(self, query: ConjunctiveQuery) -> bool:
        """True if the query is non-empty over the store."""
        return next(self.iter_answers(query), None) is not None

    # ------------------------------------------------------------------
    # The join
    # ------------------------------------------------------------------

    def _solve(self, query: ConjunctiveQuery) -> Iterator[List[Hashable]]:
        """Every embedding of the query pattern into the store, as keys
        in one slot per variable (``query.variables`` order).  The list is
        reused: read it before advancing the iterator."""
        store = self._store
        key_of = store.key_of
        scan = store.scan_keys
        slot_of = {v: i for i, v in enumerate(query.variables)}
        slots: List[Hashable] = [None] * len(slot_of)

        # An atom compiles to (predicate key, subject slot, subject key,
        # object slot, object key, predicate): an argument is a slot
        # (>= 0, its key None) or a constant key (its slot -1).
        remaining = []
        for atom in query.atoms:
            compiled = [key_of(atom.predicate)]
            for arg in (atom.arg1, atom.arg2):
                if isinstance(arg, Variable):
                    compiled += (slot_of[arg], None)
                else:
                    compiled += (-1, key_of(arg))
            remaining.append((*compiled, atom.predicate))
        order = []  # order[d]: the atom joined at depth d, once chosen
        last = len(remaining) - 1

        def pick() -> None:
            """Move the most selective remaining atom under the current
            binding to the end of ``order``."""
            best, best_cost = 0, float("inf")
            joined = any(key is not None for key in slots)
            for i, (p, s_slot, s, o_slot, o, predicate) in enumerate(remaining):
                if s_slot >= 0:
                    s = slots[s_slot]
                if o_slot >= 0:
                    o = slots[o_slot]
                if s is None and o is None:
                    cost = self._stats.predicate_count(predicate)
                    # Prefer atoms joined to the current binding: one
                    # with no bound position creates a cross product.
                    if joined:
                        cost *= len(self._store) or 1
                else:
                    cost = store.count_keys(s, p, o)
                if cost < best_cost:
                    best, best_cost = i, cost
            order.append(remaining.pop(best))

        def extend(depth: int) -> Iterator[List[Hashable]]:
            if depth == len(order):
                pick()
            p, s_slot, s, o_slot, o, _ = order[depth]
            if s_slot >= 0:
                s = slots[s_slot]
            if o_slot >= 0:
                o = slots[o_slot]
            bind_s = s is None
            bind_o = o is None
            same = bind_s and bind_o and s_slot == o_slot
            for s_key, o_key in scan(s, p, o):
                if same and s_key != o_key:
                    continue
                if bind_s:
                    slots[s_slot] = s_key
                if bind_o:
                    slots[o_slot] = o_key
                if depth == last:
                    yield slots
                else:
                    yield from extend(depth + 1)
            if bind_s:
                slots[s_slot] = None
            if bind_o:
                slots[o_slot] = None

        return extend(0)
