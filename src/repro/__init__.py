"""repro — keyword search on RDF data through top-k query computation.

A faithful, self-contained reproduction of *"Top-k Exploration of Query
Candidates for Efficient Keyword Search on Graph-Shaped (RDF) Data"*
(Tran, Wang, Rudolph, Cimiano — ICDE 2009).

Quickstart::

    from repro import KeywordSearchEngine, parse_ntriples, DataGraph

    graph = DataGraph(parse_ntriples(open("data.nt")))
    engine = KeywordSearchEngine(graph, cost_model="c3")
    result = engine.search("cimiano aifb 2006", k=10)
    for candidate in result:
        print(candidate.cost, candidate.to_sparql())
    answers = engine.execute(result.best())

Package map (mirrors the paper's architecture, Fig. 2):

* :mod:`repro.rdf` — the data graph of Definition 1
* :mod:`repro.keyword` — the keyword index of Section IV-A
* :mod:`repro.summary` — summary graph (Def 4) + augmentation (Def 5)
* :mod:`repro.scoring` — cost functions C1/C2/C3 (Section V)
* :mod:`repro.core` — exploration (Alg 1), top-k (Alg 2), query mapping
* :mod:`repro.query` — conjunctive queries, evaluation, SPARQL/SQL/NL
* :mod:`repro.store` — the triple store queries execute on
* :mod:`repro.baselines` — BANKS / bidirectional / BLINKS-style comparators
* :mod:`repro.datasets` — DBLP/LUBM/TAP-style generators + workloads
* :mod:`repro.quality` — the paper's intent MRR (Fig. 4), golden-case
  Recall@k / MRR / nDCG@k and the ``repro eval`` regression gate
* :mod:`repro.maintenance` — incremental index maintenance (epochs)
* :mod:`repro.service` — snapshot-isolated concurrent serving + HTTP
"""

from repro.rdf import (
    URI,
    Literal,
    BNode,
    Variable,
    Triple,
    Namespace,
    DataGraph,
    parse_ntriples,
    serialize_ntriples,
)
from repro.query import Atom, ConjunctiveQuery, to_sparql, parse_sparql, verbalize
from repro.core import KeywordSearchEngine, QueryCandidate, SearchResult
from repro.summary import SummaryGraph
from repro.keyword import KeywordIndex
from repro.scoring import make_cost_model

__version__ = "1.0.0"

__all__ = [
    "URI",
    "Literal",
    "BNode",
    "Variable",
    "Triple",
    "Namespace",
    "DataGraph",
    "parse_ntriples",
    "serialize_ntriples",
    "Atom",
    "ConjunctiveQuery",
    "to_sparql",
    "parse_sparql",
    "verbalize",
    "KeywordSearchEngine",
    "QueryCandidate",
    "SearchResult",
    "SummaryGraph",
    "KeywordIndex",
    "make_cost_model",
    "__version__",
]
