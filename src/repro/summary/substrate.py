"""Version-keyed CSR exploration substrate (the query-invariant half of
Algorithm 1's interning).

Before this module, every ``explore_top_k`` call re-interned the whole
augmented summary graph — re-sorting all element keys, re-hashing them into
an id dict, and re-materializing per-element neighbor lists — an
O(|summary| log |summary|) term per query.  The substrate hoists everything
query-invariant out of that loop: the **base** summary graph is interned
once into flat CSR arrays

* ``keys`` / ``ids`` — the canonical (repr-sorted) key ↔ id tables,
* ``offsets`` / ``targets`` — ``array('l')`` compressed sparse rows holding
  every element's neighbor ids in canonical order,

and cached on the summary graph keyed on its mutation ``version``
(:meth:`~repro.summary.summary_graph.SummaryGraph.exploration_substrate`),
so :class:`~repro.maintenance.IndexManager` updates invalidate it
automatically.  Per query, only the O(#matches) overlay elements receive
appended ids and adjacency rows (see ``repro.core.exploration``).

The substrate also hosts derived caches with the same lifetime (they
die with the substrate when ``version`` moves):

* per-cost-table ``array('d')`` base-cost slots, keyed on the cost model's
  cached base-cost dict — turning per-query cost assembly into one memcpy
  plus O(#matches) overrides;
* the **query plans** (:attr:`ExplorationSubstrate.plans`): an LRU of
  augmented graphs keyed by the keyword matches they were built from
  (:func:`repro.summary.augmentation.augment`).  Each plan carries what
  the stages after augmentation derive from it — per cost model its
  element costs, per costs object its assembled view (see
  ``repro.core.exploration._build_substrate_view``), on the view its
  :class:`BoundTables`, and the finished searches an engine keeps — so a
  repeated query skips all of them and runs only Algorithm 1/2's loop,
  or, when its result is kept, none of it.
"""

from __future__ import annotations

from array import array
from typing import Dict, Hashable, Iterable, List, Mapping, Optional, Tuple

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
    """Flat CSR intern tables over one version of a summary graph.

    Parameters
    ----------
    pairs:
        ``(repr, key)`` tuples in canonical (repr-sorted) order — exactly
        what ``SummaryGraph._canonical_pairs`` caches per version.
    neighbors_of:
        ``key -> iterable of neighbor keys`` over the same graph.
    """

    __slots__ = (
        "keys",
        "reprs",
        "ids",
        "offsets",
        "targets",
        "n",
        "_cost_arrays",
        "plans",
    )

    #: Base-cost arrays retained per substrate (one per live cost model).
    MAX_COST_TABLES = 4
    #: Query plans retained per substrate (LRU).
    MAX_PLANS = 32

    def __init__(self, pairs: Iterable[Tuple[str, Hashable]], neighbors_of):
        pairs = tuple(pairs)
        self.keys: Tuple[Hashable, ...] = tuple(key for _, key in pairs)
        self.reprs: List[str] = [text for text, _ in pairs]
        ids: Dict[Hashable, int] = {key: i for i, key in enumerate(self.keys)}
        self.ids = ids
        self.n = len(self.keys)

        offsets = array("l", [0])
        targets = array("l")
        for key in self.keys:
            row = sorted(ids[nb] for nb in neighbors_of(key))
            targets.extend(row)
            offsets.append(len(targets))
        self.offsets = offsets
        self.targets = targets

        self._cost_arrays: Dict[int, Tuple[Mapping, array]] = {}
        #: keyword matches (per keyword, the match objects themselves,
        #: which compare by identity) -> AugmentedSummaryGraph.
        self.plans: LruDict = LruDict(self.MAX_PLANS)

    def row(self, element_id: int) -> array:
        """The neighbor ids of one element (ascending, canonical order)."""
        return self.targets[self.offsets[element_id] : self.offsets[element_id + 1]]

    # ------------------------------------------------------------------
    # Cost slots
    # ------------------------------------------------------------------

    def cost_array(self, base_table: Mapping[Hashable, float]) -> array:
        """``array('d')`` of base-element costs aligned with :attr:`keys`.

        Keyed on the identity of ``base_table`` — the cost models hand out
        one cached base-cost dict per graph version, so repeated queries
        hit the same array.  A strong reference to the table is kept so a
        recycled ``id()`` can never alias a dead entry.
        """
        token = id(base_table)
        entry = self._cost_arrays.get(token)
        if entry is not None and entry[0] is base_table:
            return entry[1]
        get = base_table.get
        arr = array("d", (checked_cost(key, get(key)) for key in self.keys))
        if len(self._cost_arrays) >= self.MAX_COST_TABLES:
            self._cost_arrays.pop(next(iter(self._cost_arrays)))
        self._cost_arrays[token] = (base_table, arr)
        return arr

    def fresh_cost_array(self, mapping: Mapping[Hashable, float]) -> array:
        """Uncached cost slots for an arbitrary per-query cost mapping."""
        get = mapping.get
        return array("d", (checked_cost(key, get(key)) for key in self.keys))

    def trim_results(self, maxsize: int) -> None:
        """Drop kept results, least recently used plan's oldest first, to ``maxsize``."""
        plans = self.plans.oldest_first()
        excess = sum(len(plan.results) for plan in plans) - maxsize
        for plan in plans:
            while excess > 0 and plan.results:
                plan.results.drop_oldest()
                excess -= 1

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def stats(self) -> Dict[str, float]:
        return {
            "elements": self.n,
            "adjacency_slots": len(self.targets),
            "estimated_bytes": 8 * (len(self.offsets) + len(self.targets))
            + 8 * self.n * len(self._cost_arrays),
        }

    def __repr__(self):
        return (
            f"ExplorationSubstrate(elements={self.n}, "
            f"adjacency_slots={len(self.targets)})"
        )
