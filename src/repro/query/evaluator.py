"""Conjunctive-query evaluation against a triple store (Definition 3).

One executor serves every store.  A query is compiled once — variables
become slots of one list, constants are resolved to the store's *keys*
and sit in slots of their own — and joined by index nested loops in key
space; a ``Term`` is only built for the distinguished values of an
answer that is actually emitted.  What a key is belongs to the store: a
term-table id on the mmap tier, the term itself on :class:`TripleStore`.

Atoms are ordered most-selective-first, so highly selective constants
(the keyword constants of computed queries) prune the search early.  The
atom evaluated at join depth *d* is chosen with the first binding that
reaches that depth and kept for the rest of the query: one cardinality
count per remaining atom and depth, not per binding.  Choosing it also
fixes which of its positions are bound at that depth, so the store is
asked once for the atom's *access path* (``store.access(p, s, o)``: the
predicate and the atom's constants narrowed once) and depth *d* keeps
the one probe of it that it will use: ``has(s, o)`` when both positions
are bound — a membership test, no iterator — ``objects(s)`` /
``subjects(o)`` when one is, ``pairs()`` when neither.

Answers follow Definition 3: a mapping of the distinguished variables such
that some extension to the existential variables embeds the whole query
pattern into the data.  Enumeration is lazy and depth-first in the
probes' order: on a bundle at epoch 0 that is the order of the sorted
runs, and on :class:`TripleStore` (and a bundle's delta overlay, after
its base rows) the order the triples were inserted, so a truncating
``limit`` keeps the first answers of the unlimited enumeration.

One generator yields the answers, as distinct tuples of the
distinguished variables' keys.  :meth:`QueryEvaluator.evaluate` keeps
them as keys (:class:`AnswerRows`): an ``/execute`` body is written
from the keys' terms' N3, and an :class:`Answer` is built only for an
answer that is read as one.
"""

from __future__ import annotations

from collections.abc import Sequence
from itertools import islice
from typing import Dict, Hashable, Iterator, List, Optional, Tuple

from repro.query.conjunctive import ConjunctiveQuery
from repro.rdf.terms import Term, Variable
from repro.store.statistics import StoreStatistics

#: Which probe of an atom's access path a join depth uses.
_HAS, _OBJECTS, _SUBJECTS, _PAIRS = range(4)


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


class AnswerRows(Sequence):
    """The answers of one query, kept as the store's keys.

    ``rows`` holds one tuple of keys per answer, in the order of
    ``variables`` (the query's distinguished variables); ``store`` turns
    a key into its term (``term_of``).
    Indexing and iteration build an :class:`Answer` per answer read, and
    the sequence equals a list of those answers.  A key of a base term
    names the same term at every epoch, and a term only the delta holds
    is its own key, so the rows read the same after a later update.
    """

    __slots__ = ("variables", "rows", "store")

    def __init__(self, variables: Tuple[Variable, ...], rows: Tuple[tuple, ...], store):
        object.__setattr__(self, "variables", variables)
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "store", store)

    def __setattr__(self, name, value):  # pragma: no cover - guard
        raise AttributeError("AnswerRows is immutable")

    def _answer(self, keys: tuple) -> Answer:
        return Answer(self.variables, tuple(map(self.store.term_of, keys)))

    def __len__(self) -> int:
        return len(self.rows)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self._answer(keys) for keys in self.rows[index]]
        return self._answer(self.rows[index])

    def __iter__(self) -> Iterator[Answer]:
        return map(self._answer, self.rows)

    def __eq__(self, other):
        if isinstance(other, (AnswerRows, list)):
            return len(self) == len(other) and list(self) == list(other)
        return NotImplemented

    __hash__ = None

    def __repr__(self):
        return f"AnswerRows({list(self)!r})"


class QueryEvaluator:
    """Evaluates conjunctive queries over a triple store."""

    def __init__(self, store):
        self._store = store
        self._stats = StoreStatistics(store)

    def invalidate_statistics(self) -> None:
        """Drop the cached predicate counts after the store's contents change."""
        self._stats.invalidate()

    def evaluate(
        self,
        query: ConjunctiveQuery,
        limit: Optional[int] = None,
    ) -> AnswerRows:
        """All (or the first ``limit``) distinct answers to the query."""
        rows = tuple(islice(self._rows(query), limit))
        return AnswerRows(query.distinguished, rows, self._store)

    def iter_answers(self, query: ConjunctiveQuery) -> Iterator[Answer]:
        """Lazily yield distinct answers — supports the paper's 'process the
        top queries until ≥10 answers are found' loop without full evaluation.
        """
        distinguished = query.distinguished
        term_of = self._store.term_of
        for keys in self._rows(query):
            yield Answer(distinguished, tuple(map(term_of, keys)))

    def count(self, query: ConjunctiveQuery) -> int:
        """Number of distinct answers."""
        return sum(1 for _ in self._rows(query))

    def _rows(self, query: ConjunctiveQuery) -> Iterator[Tuple[Hashable, ...]]:
        """Each distinct answer once, as the keys of the distinguished
        variables, in enumeration order."""
        variables = query.variables
        picks = [variables.index(v) for v in query.distinguished]
        seen = set()
        for slots in self._solve(query):
            keys = tuple([slots[i] for i in picks])
            if keys not in seen:
                seen.add(keys)
                yield keys

    # ------------------------------------------------------------------
    # The join
    # ------------------------------------------------------------------

    def _solve(self, query: ConjunctiveQuery) -> Iterator[List[Hashable]]:
        """Every embedding of the query pattern into the store, as keys
        in one slot per variable (``query.variables`` order; the atoms'
        constants follow).  The list is reused: read it before advancing
        the iterator."""
        store = self._store
        key_of = store.key_of
        slot_of = {v: i for i, v in enumerate(query.variables)}
        n_vars = len(slot_of)
        slots: List[Hashable] = [None] * n_vars

        # An atom compiles to (predicate key, subject slot, object slot,
        # predicate); a constant is resolved here, once, into a slot of
        # its own past the variables'.
        remaining = []
        for atom in query.atoms:
            ends = []
            for arg in (atom.arg1, atom.arg2):
                if isinstance(arg, Variable):
                    ends.append(slot_of[arg])
                else:
                    ends.append(len(slots))
                    slots.append(key_of(arg))
            remaining.append((key_of(atom.predicate), *ends, atom.predicate))
        # order[d]: (kind, probe, subject slot, object slot) of the atom
        # joined at depth d, once chosen.
        order = []
        last = len(remaining) - 1

        def pick() -> None:
            """Move the most selective remaining atom under the current
            binding to the end of ``order``, with the probe of its access
            path that the positions bound at this depth call for."""
            best, best_cost = 0, float("inf")
            joined = any(key is not None for key in slots[:n_vars])
            size = len(store) or 1
            for i, (p, s_slot, o_slot, predicate) in enumerate(remaining):
                s, o = slots[s_slot], slots[o_slot]
                if s is None and o is None:
                    cost = self._stats.predicate_count(predicate)
                    # Prefer atoms joined to the current binding: one
                    # with no bound position creates a cross product.
                    if joined:
                        cost *= size
                else:
                    cost = store.count_keys(s, p, o)
                if cost < best_cost:
                    best, best_cost = i, cost
            p, s_slot, o_slot, _ = remaining.pop(best)
            s, o = slots[s_slot], slots[o_slot]
            access = store.access(
                p, s if s_slot >= n_vars else None, o if o_slot >= n_vars else None
            )
            if s is None and o is None:
                step = (_PAIRS, access.pairs)
            elif s is None:
                step = (_SUBJECTS, access.subjects)
            elif o is None:
                step = (_OBJECTS, access.objects)
            else:
                step = (_HAS, access.has)
            order.append((*step, s_slot, o_slot))

        def extend(depth: int) -> Iterator[List[Hashable]]:
            """Bind what the atom at ``depth`` leaves open (nothing at
            -1, the root), test the fully bound atoms that follow each
            binding in place — a test costs no iterator — and descend
            into the next atom that binds a variable.  Slots bound here
            are not cleared afterwards: which positions a depth reads was
            fixed when its atom was picked, and all of them are bound
            above it."""
            if depth < 0:
                kind, rows = _HAS, (None,)
            else:
                kind, probe, s_slot, o_slot = order[depth]
                if kind == _OBJECTS:
                    rows = probe(slots[s_slot])
                elif kind == _SUBJECTS:
                    rows = probe(slots[o_slot])
                elif s_slot == o_slot:  # p(?x, ?x): the loops among the pairs
                    kind, rows = _SUBJECTS, (s for s, o in probe() if s == o)
                else:
                    rows = probe()
            for row in rows:
                if kind == _OBJECTS:
                    slots[o_slot] = row
                elif kind == _SUBJECTS:
                    slots[s_slot] = row
                elif kind == _PAIRS:
                    slots[s_slot], slots[o_slot] = row
                deeper = depth + 1
                while deeper <= last:
                    if deeper == len(order):
                        pick()
                    test, holds, s_test, o_test = order[deeper]
                    if test != _HAS:
                        yield from extend(deeper)
                        break
                    if not holds(slots[s_test], slots[o_test]):
                        break
                    deeper += 1
                else:
                    yield slots

        return extend(-1)
