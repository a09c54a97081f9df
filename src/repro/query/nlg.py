"""Template-based natural-language verbalization of conjunctive queries.

The paper's demo (SearchWebDB) "transforms [the top-k queries] to simple
natural language questions and presents them to the user" (Section VII).
This module reproduces that presentation layer: a deterministic, readable
English gloss of a query, grouped per variable.
"""

from __future__ import annotations

from repro.query.conjunctive import ConjunctiveQuery
from repro.query.presentation import render


def verbalize(query: ConjunctiveQuery) -> str:
    """A one-paragraph English reading of the query.

    >>> from repro.rdf.terms import URI, Variable, Literal
    >>> from repro.query.conjunctive import Atom, ConjunctiveQuery
    >>> q = ConjunctiveQuery([
    ...     Atom(URI("type"), Variable("x"), URI("Publication")),
    ...     Atom(URI("year"), Variable("x"), Literal("2006")),
    ... ])
    >>> verbalize(q)
    "Find ?x, a Publication, whose year is '2006'."

    A query without variables states facts to check:

    >>> verbalize(ConjunctiveQuery([Atom(URI("subclass"), URI("Institute"), URI("Agent"))]))
    'Check that Institute is a kind of Agent.'
    """
    return render(query)[2]
