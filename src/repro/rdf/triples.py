"""The RDF triple: the atomic statement of the data graph."""

from __future__ import annotations

from typing import Iterator

from repro.rdf.terms import Term, URI, Literal, BNode


class Triple:
    """An RDF statement ``(subject, predicate, object)``.

    Subjects are URIs or blank nodes, predicates are URIs, and objects may be
    any non-variable term.  Triples are immutable value objects and iterate
    like 3-tuples so they unpack naturally::

        s, p, o = triple
    """

    __slots__ = ("subject", "predicate", "object", "_hash")

    def __init__(self, subject: Term, predicate: URI, obj: Term):
        if not isinstance(subject, (URI, BNode)):
            raise TypeError(
                f"triple subject must be URI or BNode, got {type(subject).__name__}"
            )
        if not isinstance(predicate, URI):
            raise TypeError(
                f"triple predicate must be URI, got {type(predicate).__name__}"
            )
        if not isinstance(obj, (URI, BNode, Literal)):
            raise TypeError(
                f"triple object must be URI, BNode or Literal, got {type(obj).__name__}"
            )
        object.__setattr__(self, "subject", subject)
        object.__setattr__(self, "predicate", predicate)
        object.__setattr__(self, "object", obj)
        # Cached like the terms' hashes: triples key every index (graph,
        # store, buckets), so each one is hashed many times over its life.
        object.__setattr__(self, "_hash", hash((subject, predicate, obj)))

    def __setattr__(self, name, value):  # pragma: no cover - guard
        raise AttributeError("Triple is immutable")

    def __iter__(self) -> Iterator[Term]:
        return iter((self.subject, self.predicate, self.object))

    def __eq__(self, other):
        return (
            isinstance(other, Triple)
            and other.subject == self.subject
            and other.predicate == self.predicate
            and other.object == self.object
        )

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"Triple({self.subject!r}, {self.predicate!r}, {self.object!r})"

    def n3(self) -> str:
        return f"{self.subject.n3()} {self.predicate.n3()} {self.object.n3()} ."
