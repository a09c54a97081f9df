"""Predicate cardinalities of a triple store, for join ordering.

The evaluator orders query atoms most-selective-first.  An atom with a
bound position is counted exactly by the store itself (``count_keys``);
what is kept here is the one count it reuses across queries — how many
triples carry a predicate, the cost of an atom with no bound position —
cached until the store's contents change.
"""

from __future__ import annotations

from typing import Dict

from repro.rdf.terms import Term
from repro.store.triple_store import TripleStore


class StoreStatistics:
    """Cached per-predicate triple counts of a store."""

    def __init__(self, store: TripleStore):
        self._store = store
        self._pred_cache: Dict[Term, int] = {}

    def predicate_count(self, predicate: Term) -> int:
        """Number of triples carrying ``predicate`` (cached)."""
        if predicate not in self._pred_cache:
            self._pred_cache[predicate] = self._store.predicate_cardinality(predicate)
        return self._pred_cache[predicate]

    def invalidate(self) -> None:
        """Drop cached counts (call after the store's contents change)."""
        self._pred_cache.clear()
