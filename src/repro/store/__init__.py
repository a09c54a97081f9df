"""Storage substrate: the RDF store the computed queries are executed on.

The paper hands its top-k queries to "the underlying database engine"
(Semplore / Jena / Sesame / Oracle in the original).  This package provides
that engine: an in-memory triple store with hash indexes over all access
patterns (:mod:`~repro.store.triple_store`) — the one store of a
constructed data graph's triples, which the graph reads and the engine
queries — the single-table relational view
of Fig. 1b (:mod:`~repro.store.single_table`), and cardinality statistics for
join ordering (:mod:`~repro.store.statistics`).
"""

from repro.store.triple_store import TripleStore
from repro.store.single_table import SingleTableStore, Row
from repro.store.statistics import StoreStatistics

__all__ = ["TripleStore", "SingleTableStore", "Row", "StoreStatistics"]
