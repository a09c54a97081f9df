"""Brute-force conjunctive-query evaluation: the ground truth for the join.

Definition 3, executed literally: every assignment of the query's atoms
to rows of ``store.match()`` is tried, and an assignment that binds the
variables consistently contributes the projection of its binding.  No
atom ordering, no index, no key space — ``len(rows) ** len(atoms)``
steps, so it is for small graphs only.
"""

from itertools import product
from typing import Set, Tuple

from repro.query.conjunctive import ConjunctiveQuery
from repro.rdf.terms import Term, Variable


def reference_answers(store, query: ConjunctiveQuery) -> Set[Tuple[Term, ...]]:
    """The answer set of ``query`` over ``store``, as value tuples in
    ``query.distinguished`` order."""
    rows = list(store.match())
    answers = set()
    for assignment in product(rows, repeat=len(query.atoms)):
        binding = {}
        for atom, triple in zip(query.atoms, assignment):
            if triple.predicate != atom.predicate:
                break
            pairs = ((atom.arg1, triple.subject), (atom.arg2, triple.object))
            if any(
                binding.setdefault(arg, value) != value
                if isinstance(arg, Variable)
                else arg != value
                for arg, value in pairs
            ):
                break
        else:
            answers.add(tuple(binding[v] for v in query.distinguished))
    return answers
