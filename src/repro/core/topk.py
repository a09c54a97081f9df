"""Algorithm 2: TA-style top-k over candidate subgraphs.

The Threshold-Algorithm adaptation of Section VI-C: candidates are matching
subgraphs; the *highest* cost of the k-ranked candidate is compared against
the *lowest* possible cost of any remaining subgraph — which is the cost of
the cheapest outstanding cursor, since every yet-undiscovered subgraph must
still be completed by some queued cursor and path costs only grow
(Theorem 1).  Termination when ``highestCost < lowestCost`` therefore
guarantees the returned subgraphs are exactly the k cheapest.
"""

from __future__ import annotations

from bisect import insort
from typing import Dict, FrozenSet, Hashable, List, Optional

from repro.core.subgraph import MatchingSubgraph


class CandidateList:
    """The sorted, deduplicated candidate list ``LG'`` of Algorithm 2.

    Subgraphs are identified by their element set: distinct connecting
    elements or path combinations assembling the same subgraph collapse to
    the cheapest variant.  The list is trimmed to the k best (Alg 2 line 8);
    ranks of retained candidates can only degrade as new candidates arrive,
    so trimming never discards a final top-k member.

    Equal-cost candidates rank by their canonical element-set key, not by
    discovery order — the ranking is then a function of the augmented
    graph alone, so incrementally maintained and freshly rebuilt indexes
    (whose internal orderings differ) produce identical result lists.
    """

    def __init__(self, k: int):
        if k < 1:
            raise ValueError("k must be >= 1")
        self.k = k
        self._by_key: Dict[FrozenSet[Hashable], MatchingSubgraph] = {}
        self._sorted: List[tuple] = []  # (cost, order_key, seq, subgraph)
        self._seq = 0
        self.offered = 0
        self.accepted = 0

    def offer(self, subgraph: MatchingSubgraph) -> bool:
        """Insert a candidate; returns True if the list changed.  A
        duplicate — same element set at equal-or-higher cost — is counted
        as offered and rejected."""
        key = subgraph.canonical_key
        existing = self._by_key.get(key)
        if existing is not None and subgraph.cost >= existing.cost:
            self.offered += 1
            return False
        self.accept(key, existing, subgraph)
        return True

    def accept(self, key, existing, subgraph: MatchingSubgraph) -> None:
        """:meth:`offer`'s accept path, which the exploration loop calls
        directly after its own inline duplicate pre-check: ``existing`` is
        the current holder of ``key`` (or None), already known to cost
        more.  Rejected duplicates must be added to :attr:`offered`
        separately by such a caller."""
        self.offered += 1
        if existing is not None:
            self._remove(existing)
        self._by_key[key] = subgraph
        self._seq += 1
        insort(self._sorted, (subgraph.cost, subgraph.order_key, self._seq, subgraph))
        self.accepted += 1
        self._trim()

    def _remove(self, subgraph: MatchingSubgraph) -> None:
        for i, entry in enumerate(self._sorted):
            if entry[-1] is subgraph:
                del self._sorted[i]
                return

    def _trim(self) -> None:
        while len(self._sorted) > self.k:
            dropped = self._sorted.pop()[-1]
            del self._by_key[dropped.canonical_key]

    # ------------------------------------------------------------------
    # The TA bounds
    # ------------------------------------------------------------------

    def kth_cost(self) -> float:
        """``highestCost``: cost of the k-ranked candidate, +inf if fewer
        than k candidates exist yet (no termination before k are found)."""
        if len(self._sorted) < self.k:
            return float("inf")
        return self._sorted[self.k - 1][0]

    def should_terminate(self, lowest_remaining_cost: float) -> bool:
        """Alg 2 line 11: strict ``highestCost < lowestCost``."""
        return self.kth_cost() < lowest_remaining_cost

    # ------------------------------------------------------------------
    # Results
    # ------------------------------------------------------------------

    def best(self, count: Optional[int] = None) -> List[MatchingSubgraph]:
        """The cheapest candidates, ascending cost."""
        limit = self.k if count is None else min(count, len(self._sorted))
        return [entry[-1] for entry in self._sorted[:limit]]

    def __len__(self) -> int:
        return len(self._sorted)

    def __repr__(self):
        return f"CandidateList(k={self.k}, size={len(self._sorted)}, kth={self.kth_cost():.3f})"
