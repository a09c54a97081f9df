"""The paper's primary contribution: top-k exploration of query candidates.

* :mod:`~repro.core.exploration` — Algorithm 1, cost-ordered multi-origin
  exploration of the augmented summary graph
* :mod:`~repro.core.topk` — Algorithm 2, TA-style top-k with the best-score
  guarantee; :mod:`~repro.core.seed` — its starting threshold
* :mod:`~repro.core.subgraph` — matching subgraphs (Definition 6) merged
  from cursor paths
* :mod:`~repro.core.query_mapping` — subgraph → conjunctive query (Sec VI-D)
* :mod:`~repro.core.engine` — the end-to-end keyword-search facade
"""

from repro.core.subgraph import MatchingSubgraph
from repro.core.exploration import ExplorationResult, explore_top_k
from repro.core.query_mapping import map_to_query
from repro.core.engine import KeywordSearchEngine, QueryCandidate, SearchResult

__all__ = [
    "MatchingSubgraph",
    "ExplorationResult",
    "explore_top_k",
    "map_to_query",
    "KeywordSearchEngine",
    "QueryCandidate",
    "SearchResult",
]
