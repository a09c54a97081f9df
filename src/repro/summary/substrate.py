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
automatically.  A plan's view (:func:`_build_substrate_view`) merges the
O(#matches) overlay elements into this order; a plan without overlay
elements uses these tables as they are.

The substrate also hosts the **query plans**
(:attr:`ExplorationSubstrate.plans`), which die with it when ``version``
moves: an LRU of augmented graphs keyed by the keyword matches they were
built from (:func:`repro.summary.augmentation.augment`).  Each plan
carries what the stages after augmentation derive from it — per cost
model its element costs, per costs object its view, on the view its
:class:`BoundTables`, and the finished searches an engine keeps — so a
repeated query skips all of them and runs only Algorithm 1/2's loop
(:mod:`repro.core.exploration`), or, when its result is kept, none of it.
The tables — Section VI-A/IX's completion bounds and the per-keyword
distances behind them — are the Dijkstra of :func:`_completion_bounds`.
"""

from __future__ import annotations

from array import array
from heapq import heapify, heappop, heappush
from math import inf as _INF
from operator import sub
from typing import (
    TYPE_CHECKING,
    Callable,
    Dict,
    Hashable,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
)

from repro.util import LruDict

if TYPE_CHECKING:
    from repro.summary.augmentation import AugmentedSummaryGraph


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

    ``nets[i]`` is keyword i's net completion-bound table, ``bounds[i][e]
    - costs[e]`` for the completion bounds and element costs given (a
    list: the exploration loop indexes it per cursor; the raw table
    enters an element once more while a cursor's cost already covers it,
    so every prune check needs the difference, and it is folded once,
    here), ``dists[j]`` the per-keyword distance table the bounds were
    built from (``array('d')``: read once per ``(k, dmax)``, by
    ``repro.core.seed.seed_threshold``), and ``thresholds`` the
    seed thresholds derived so far, keyed ``(k, dmax)`` — a handful per
    plan, since a server's k and dmax rarely vary.
    """

    __slots__ = ("nets", "dists", "thresholds")

    #: Seed thresholds retained per plan (LRU).
    MAX_THRESHOLDS = 8

    def __init__(
        self, bounds: List[List[float]], dists: List[array], costs: Sequence[float]
    ):
        self.nets = [list(map(sub, row, costs)) for row in bounds]
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


class _SubstrateView:
    """One plan's id space: element ``i`` is ``keys[i]``, its neighbours'
    ids are ``rows[i]`` (ascending) and its cost is ``costs[i]``.

    Ids are canonical ranks — one stable repr sort of the base and overlay
    elements, base first among equal reprs — which is what interning the
    augmented graph from scratch would assign, so emitted subgraphs decode
    with ``keys.__getitem__``.
    """

    __slots__ = (
        "keys",
        "ids",
        "rows",
        "costs",
        "total",
        # The plan's BoundTables (None until the first run built them).
        "tables",
    )


def _build_substrate_view(
    augmented: AugmentedSummaryGraph, element_costs
) -> _SubstrateView:
    """The view of one plan over the graph's cached substrate.

    A plan without overlay elements shares the substrate's tables.  One
    with overlay elements merges them into the canonical order by one
    stable sort of the base and overlay reprs, base first: base rows are
    renumbered through ``rank`` (old index -> view id; base elements keep
    their relative order, so a row stays ascending), and the rows the
    overlay touches — its own elements and the base vertices that gained
    edges — are read off the overlay.

    A view is a function of the augmented graph and the costs, and is never
    mutated after assembly (its lazy caches only ever store equal values),
    so the view of costs the graph memoized — the ones
    :meth:`~repro.scoring.cost.CostModel.element_costs` returns — is kept
    on the graph and shared by every search of that plan.  Any other costs
    object (a test's plain dict) gets a view of its own per call.
    """
    cached = augmented.view_memo.get(id(element_costs))
    if cached is not None and cached[0] is element_costs:
        return cached[1]
    graph = augmented.graph
    owner = getattr(graph, "base", graph)
    factory = getattr(owner, "exploration_substrate", None)
    if factory is None:
        raise ValueError(
            "exploration requires a summary graph (or overlay) "
            f"with exploration_substrate(); got {type(graph).__name__}"
        )
    substrate = factory()
    added = () if owner is graph else graph.added_element_keys()

    view = _SubstrateView()
    if added:
        n = len(substrate.keys)
        every = substrate.keys + added
        reprs = substrate.reprs + [repr(key) for key in added]
        order = sorted(range(len(every)), key=reprs.__getitem__)
        keys = tuple(map(every.__getitem__, order))
        ids = dict(zip(keys, range(len(keys))))
        rank = [0] * len(every)
        for new, old in enumerate(order):
            rank[old] = new
        base_get = substrate.ids.get
        touched = {base_get(key) for key in graph.added_incident_map()}
        base_rows = substrate.rows
        neighbors = graph.neighbors
        rows = []
        for new, old in enumerate(order):
            if old < n and old not in touched:
                rows.append(tuple(map(rank.__getitem__, base_rows[old])))
            else:
                rows.append(tuple(sorted([ids[nb] for nb in neighbors(keys[new])])))
        view.keys, view.ids, view.rows = keys, ids, rows
    else:
        view.keys, view.ids, view.rows = substrate.keys, substrate.ids, substrate.rows
    view.total = len(view.keys)
    view.tables = None

    costs = list(map(element_costs.get, view.keys))
    if None in costs or not min(costs, default=1.0) > 0:
        for key, cost in zip(view.keys, costs):
            checked_cost(key, cost)
    view.costs = costs
    if any(memoized is element_costs for memoized in augmented.cost_memo.values()):
        # Racing first builds agree on whichever view landed first.
        view = augmented.view_memo.setdefault(id(element_costs), (element_costs, view))[1]
    return view



def _dijkstra_rows(
    seeds: Dict[int, float],
    row_of: Callable[[int], Sequence[int]],
    costs: Sequence[float],
    total: int,
) -> List[float]:
    """Cheapest path cost to every element from weighted seed elements.

    Seeds carry their initial path cost; relaxing an edge adds the cost of
    the element being entered — matching the exploration's path-cost
    definition (origin cost included).
    """
    dist = [_INF] * total
    heap: List[Tuple[float, int]] = []
    for node, cost in seeds.items():
        if cost < dist[node]:
            dist[node] = cost
            heap.append((cost, node))
    heapify(heap)
    while heap:
        d, node = heappop(heap)
        if d != dist[node]:
            continue
        for neighbor in row_of(node):
            nd = d + costs[neighbor]
            if nd < dist[neighbor]:
                dist[neighbor] = nd
                heappush(heap, (nd, neighbor))
    return dist


def _completion_bounds(
    m: int,
    seed_costs: List[Dict[int, float]],
    row_of: Callable[[int], Sequence[int]],
    costs: Sequence[float],
    total: int,
) -> Tuple[List[List[float]], List[array]]:
    """Per-keyword admissible completion bounds L_i(n), and the
    per-keyword distance tables they were built from.

    ``dist_j(n)`` = cheapest path cost from keyword j to element n.  The
    raw table is a Dijkstra seeded with ``S_i(n*) = Σ_{j≠i} dist_j(n*)`` at
    every element; since relaxation *enters* nodes (adding the entered
    node's cost) while a cursor's own cost already covers its element, the
    admissible per-cursor bound is ``L_i(n) − cost(n)``: a subgraph
    completing a keyword-i path sitting at n with cost w costs at least
    ``w + L_i(n) − cost(n)``.  Bounds also ignore the simple-path
    constraint, so they only ever *under*estimate: pruning on them
    preserves the exact top-k.  They underestimate by at least one whole
    element cost — the meeting element n*'s own cost is in neither the
    relaxed distance from n* nor the subtraction — which, for any cost
    table whose entries are within ~10 orders of magnitude of each other,
    dwarfs the last-ulp difference between a table's sum and a path's sum
    over the same elements; that slack is why the prune compares with a
    plain ``>=`` and needs no rounding margin
    (``test_bounds_real_costs.py`` checks it on the real cost models).

    Returns ``(bounds, dists)``; ``dists[j]`` is ``dist_j`` as an
    ``array('d')`` — the table :func:`seed_witnesses` reads subgraphs off.
    """
    per_keyword_dist = [
        _dijkstra_rows(seed_costs[i], row_of, costs, total) for i in range(m)
    ]
    bounds: List[List[float]] = []
    for i in range(m):
        seeds: Dict[int, float] = {}
        for node in range(total):
            acc = 0.0
            for j in range(m):
                if j == i:
                    continue
                dj = per_keyword_dist[j][node]
                if dj == _INF:
                    acc = _INF
                    break
                acc += dj
            if acc != _INF:
                seeds[node] = acc
        bounds.append(
            _dijkstra_rows(seeds, row_of, costs, total) if seeds else [_INF] * total
        )
    return bounds, [array("d", row) for row in per_keyword_dist]

