"""Version-keyed exploration substrate (the query-invariant half of
Algorithm 1's interning).

Exploration numbers the elements of a plan's view by their canonical
(repr-sorted) rank.  The part of that numbering that does not depend on
the query is the base summary graph's, so it is interned once per graph
version:

* ``keys`` / ``reprs`` / ``ids`` — the canonical key, its repr, and the
  key -> id table;
* ``rows`` — per element, the tuple of its neighbours' ids, ascending,

cached on the summary graph keyed on its mutation ``version``
(:meth:`~repro.summary.summary_graph.SummaryGraph.exploration_substrate`),
so :class:`~repro.maintenance.IndexManager` updates invalidate it
automatically.  A plan's view (``repro.core.exploration``) merges the
O(#matches) overlay elements into this order; a plan without overlay
elements uses these tables as they are.

The substrate also hosts the **query plans**
(:attr:`ExplorationSubstrate.plans`), which die with it when ``version``
moves: an LRU of augmented graphs keyed by the keyword matches they were
built from (:func:`repro.summary.augmentation.augment`).  Each plan
carries what the stages after augmentation derive from it — per cost
model its element costs, per costs object its view (see
``repro.core.exploration._build_substrate_view``), on the view its
:class:`BoundTables`, and the finished searches an engine keeps — so a
repeated query skips all of them and runs only Algorithm 1/2's loop, or,
when its result is kept, none of it.
"""

from __future__ import annotations

from array import array
from typing import Dict, Hashable, Iterable, List, Optional, Tuple

from repro.util import LruDict


def checked_cost(key: Hashable, cost: Optional[float]) -> float:
    """Validate one element cost (same contract the exploration enforces)."""
    if cost is None:
        raise KeyError(f"no cost assigned to element {key!r}")
    if cost <= 0:
        raise ValueError(f"element cost must be positive: {key!r} -> {cost}")
    return cost


class BoundTables:
    """What a query plan's view holds: the query's connectivity tables
    and what has been derived from them.

    ``bounds[i]`` is keyword i's completion-bound table (a list: the
    exploration loop indexes it per cursor), ``dists[j]`` the per-keyword
    distance table the bounds were built from (``array('d')``: read once
    per ``(k, dmax)``, by ``repro.core.exploration.seed_threshold``), and
    ``thresholds`` the seed thresholds derived so far, keyed ``(k, dmax)``
    — a handful per plan, since a server's k and dmax rarely vary.
    """

    __slots__ = ("bounds", "dists", "thresholds")

    #: Seed thresholds retained per plan (LRU).
    MAX_THRESHOLDS = 8

    def __init__(self, bounds: List[List[float]], dists: List[array]):
        self.bounds = bounds
        self.dists = dists
        self.thresholds: LruDict = LruDict(self.MAX_THRESHOLDS)


class ExplorationSubstrate:
    """Canonical intern tables over one version of a summary graph.

    Parameters
    ----------
    pairs:
        ``(repr, key)`` tuples in canonical (repr-sorted) order — exactly
        what ``SummaryGraph._canonical_pairs`` caches per version.
    neighbors_of:
        ``key -> iterable of neighbor keys`` over the same graph.
    """

    __slots__ = ("keys", "reprs", "ids", "rows", "plans")

    #: Query plans retained per substrate (LRU).
    MAX_PLANS = 32

    def __init__(self, pairs: Iterable[Tuple[str, Hashable]], neighbors_of):
        pairs = tuple(pairs)
        self.keys: Tuple[Hashable, ...] = tuple(key for _, key in pairs)
        self.reprs: List[str] = [text for text, _ in pairs]
        ids: Dict[Hashable, int] = {key: i for i, key in enumerate(self.keys)}
        self.ids = ids
        self.rows: List[Tuple[int, ...]] = [
            tuple(sorted([ids[nb] for nb in neighbors_of(key)])) for key in self.keys
        ]
        #: keyword matches (per keyword, the match objects themselves,
        #: which compare by identity) -> AugmentedSummaryGraph.
        self.plans: LruDict = LruDict(self.MAX_PLANS)

    def trim_results(self, maxsize: int) -> None:
        """Drop kept results, least recently used plan's oldest first, to ``maxsize``."""
        plans = self.plans.oldest_first()
        excess = sum(len(plan.results) for plan in plans) - maxsize
        for plan in plans:
            while excess > 0 and plan.results:
                plan.results.drop_oldest()
                excess -= 1

    def __repr__(self):
        return f"ExplorationSubstrate(elements={len(self.keys)})"
