"""The single-table relational storage scheme of Fig. 1b.

RDF engines of the paper's era (Jena, Sesame, Oracle) commonly store all
triples in one three-column relation ``Ex(s, p, o)`` and answer SPARQL by
self-joining it — the SQL query of Fig. 1c joins six aliases of that table.

:class:`SingleTableStore` materializes that relation and evaluates exactly
such self-join plans with nested loops over the raw rows.  It is deliberately
index-free: it exists as a *differential-testing oracle* for the optimized
evaluator in :mod:`repro.query.evaluator`, and to ground the SQL rendering.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, NamedTuple, Optional, Sequence, Tuple

from repro.rdf.terms import Term, Variable
from repro.rdf.triples import Triple


class Row(NamedTuple):
    """One row of the three-column relation ``Ex(s, p, o)``."""

    s: Term
    p: Term
    o: Term


class SingleTableStore:
    """All triples in one relation; queries run as unindexed self-joins."""

    TABLE_NAME = "Ex"

    def __init__(self, triples: Optional[Iterable[Triple]] = None):
        self._rows: List[Row] = []
        if triples is not None:
            for t in triples:
                self.add(t)

    def add(self, triple: Triple) -> None:
        self._rows.append(Row(triple.subject, triple.predicate, triple.object))

    def __len__(self) -> int:
        return len(self._rows)

    @property
    def rows(self) -> Tuple[Row, ...]:
        return tuple(self._rows)

    def evaluate_self_join(
        self,
        patterns: Sequence[Tuple[Term, Term, Term]],
        projection: Sequence[Variable],
    ) -> List[Tuple[Term, ...]]:
        """Evaluate a conjunctive self-join plan by brute force.

        Each pattern is a ``(s, p, o)`` template whose positions hold either
        constants (:class:`~repro.rdf.terms.Term`) or
        :class:`~repro.rdf.terms.Variable`; one table alias is scanned per
        pattern, exactly like the ``Ex AS A, Ex AS B, ...`` SQL of Fig. 1c.
        Returns distinct projected tuples.
        """
        results: List[Tuple[Term, ...]] = []
        seen = set()
        self._join(patterns, 0, {}, projection, results, seen)
        return results

    def _join(
        self,
        patterns: Sequence[Tuple[Term, Term, Term]],
        depth: int,
        binding: Dict[Variable, Term],
        projection: Sequence[Variable],
        results: List[Tuple[Term, ...]],
        seen: set,
    ) -> None:
        if depth == len(patterns):
            row = tuple(binding.get(v, v) for v in projection)
            if row not in seen:
                seen.add(row)
                results.append(row)
            return
        pattern = patterns[depth]
        for row in self._rows:
            extension = self._unify(pattern, row, binding)
            if extension is not None:
                self._join(patterns, depth + 1, extension, projection, results, seen)

    @staticmethod
    def _unify(
        pattern: Tuple[Term, Term, Term],
        row: Row,
        binding: Dict[Variable, Term],
    ) -> Optional[Dict[Variable, Term]]:
        """Match one pattern against one row under the current binding."""
        extension = binding
        copied = False
        for template, actual in zip(pattern, row):
            if isinstance(template, Variable):
                bound = extension.get(template)
                if bound is None:
                    if not copied:
                        extension = dict(extension)
                        copied = True
                    extension[template] = actual
                elif bound != actual:
                    return None
            elif template != actual:
                return None
        return extension
