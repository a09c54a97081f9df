"""Algorithm 2: TA-style top-k over candidate subgraphs.

The Threshold-Algorithm adaptation of Section VI-C: candidates are matching
subgraphs; the *highest* cost of the k-ranked candidate is compared against
the *lowest* possible cost of any remaining subgraph — which is the cost of
the cheapest outstanding cursor, since every yet-undiscovered subgraph must
still be completed by some queued cursor and path costs only grow
(Theorem 1).  Termination when ``highestCost < lowestCost`` therefore
guarantees the returned subgraphs are exactly the k cheapest.

:func:`iter_combinations` enumerates a registration's new combinations
best-first.  A combination's cost is the *chained* sum along the
successor path that discovered it (``cost + w[next] - w[current]``), not
a fresh sum: the two can differ in the last ulp, which can flip the
consumer's ``>= kth_cost`` break, so the oracle
(``tests/reference_exploration.py``) replays the same chains.
"""

from __future__ import annotations

from bisect import insort
from heapq import heappop, heappush
from typing import Dict, FrozenSet, Hashable, List, Optional, Tuple

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


# ----------------------------------------------------------------------
# Combination enumeration (Algorithm 2 registrations)
# ----------------------------------------------------------------------


def iter_combinations(lists, w, cutoff):
    """Cheapest-sum-first index tuples across per-keyword cursor lists.

    ``lists[i]`` holds cursor indices ascending in cost, ``w`` maps a
    cursor index to its cost, ``cutoff`` returns the caller's current
    k-th cost.  Yields ``(cost, combo)`` with ``combo`` one cursor index
    per keyword: the classic k-smallest-sums frontier search from index
    vector (0, ..., 0); the caller decides when to stop consuming.
    Successors at or above the cut-off are neither pushed nor remembered
    in ``seen`` — they could only ever be consumed past the caller's own
    stopping point (the cut-off never increases) — which bounds the
    frontier by the cut-off instead of letting it grow quadratically in
    the list lengths.

    Costs are chained (``cost + w[next] - w[current]`` along the
    successor path that discovers a combination), the start sum is a
    fold-left over the keywords, and ties break lexicographically on the
    index vector — see the module docstring for why that arithmetic is
    part of the contract.  Singleton dimensions are reduced out first
    (their constant coordinates never influence a tuple comparison): with
    one non-singleton list the frontier heap degenerates to an ascending
    scan of that list, chaining successor costs exactly as the heap
    would — the common ``m == 2`` registration.
    """
    m = len(lists)
    start_cost = 0
    for lst in lists:
        start_cost = start_cost + w[lst[0]]
    base = [lst[0] for lst in lists]
    wide = [i for i in range(m) if len(lists[i]) > 1]

    if not wide:
        yield start_cost, tuple(base)
        return

    if len(wide) == 1:
        d = wide[0]
        lst = lists[d]
        cost = start_cost
        prev = lst[0]
        yield cost, tuple(base)
        for nxt in lst[1:]:
            cost = cost + w[nxt] - w[prev]
            prev = nxt
            base[d] = nxt
            yield cost, tuple(base)
        return

    # >= 2 open dimensions: the frontier heap over full m-length index
    # vectors (an np.add.outer grid with argpartition chunks was measured
    # and rejected: grid arithmetic is not value-identical to the chained
    # successor sums).
    start = (0,) * m
    heap: List[Tuple[float, Tuple[int, ...]]] = [(start_cost, start)]
    seen = {start}
    while heap:
        cost, indices = heappop(heap)
        yield cost, tuple(lists[i][indices[i]] for i in range(m))
        bound = cutoff()
        for i in wide:
            nxt = indices[i] + 1
            lst = lists[i]
            if nxt < len(lst):
                successor = indices[:i] + (nxt,) + indices[i + 1 :]
                if successor in seen:
                    continue
                next_cost = cost + w[lst[nxt]] - w[lst[indices[i]]]
                if next_cost >= bound:
                    continue
                seen.add(successor)
                heappush(heap, (next_cost, successor))

