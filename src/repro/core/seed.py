"""Algorithm 2's starting threshold, read off the distance tables.

Alone, Algorithm 2 prunes only once k candidates exist, although the
per-keyword distance tables of :class:`~repro.summary.substrate.BoundTables`
already describe matching subgraphs: :func:`seed_witnesses` reads up to k
of them off the tables without exploring, and :func:`seed_threshold`
takes the k-th cheapest as an upper bound on the run's final k-th cost —
which :mod:`repro.core.exploration` starts its bound checks from, checks
and caches beside the tables per ``(k, dmax)``.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from heapq import heapify, heappop, heappush
from itertools import islice
from math import inf as _INF
from operator import add, itemgetter
from typing import Dict, List

from repro.core.topk import iter_combinations

#: Relative widening of the seed threshold.  A witness's cost is a sum of
#: table entries, the loop's cost for the same subgraph a sum of chained
#: path costs; both are folded in the same order here, and the widening
#: keeps the threshold strictly above the witness whatever the last ulp
#: of either does.  Ten orders of magnitude above double rounding, ten
#: below any difference between two distinct subgraph costs that matters.
_SEED_SLACK = 1e-9


def _path_back(dist, known, node, row_of, costs):
    """Keyword j's cheapest path to ``node`` (a tuple, keyword element
    first), walked back through its distance table: a predecessor is any
    neighbor ``p`` with ``dist[p] + cost[node] == dist[node]`` — exactly
    the float the Dijkstra stored, so the forward chain along the path
    reproduces ``dist[node]`` bit for bit.  ``known`` memoizes paths per
    element, starting from the keyword elements themselves; shortest paths
    share prefixes, so each element's row is scanned once per keyword."""
    trail = []
    path = known.get(node)
    while path is None:
        trail.append(node)
        need = dist[node]
        cost = costs[node]
        for prev in row_of(node):
            if dist[prev] + cost == need:
                break
        else:  # pragma: no cover - not a fixpoint table: no witness
            return None
        node = prev
        path = known.get(node)
    while trail:
        node = trail.pop()
        path = path + (node,)
        known[node] = path
    return path


def _sibling_bindings(root, m, seed_costs, row_of, costs, k, dmax):
    """Per keyword, the up to k keyword elements nearest ``root`` with
    their tree paths: ``(lists, paths, weights)`` in the shape
    :func:`iter_combinations` enumerates (``lists[j]`` indexes ``paths`` /
    ``weights`` ascending in weight).  One Dijkstra outward from
    ``root``, not expanded past ``dmax`` hops and stopped once every
    keyword has k elements (or all it has) settled.  A path's weight is
    chained forward from its keyword element — the float a cursor
    walking it carries — not read off the outward distances, which add
    the same costs in the opposite order."""
    owners: Dict[int, List[int]] = {}
    for j, seeds in enumerate(seed_costs):
        for node in seeds:
            owners.setdefault(node, []).append(j)
    room = [min(k, len(seeds)) for seeds in seed_costs]
    missing = sum(room)
    settled: List[List[int]] = [[] for _ in range(m)]
    dist = {root: costs[root]}
    parent = {root: -1}
    heap = [(costs[root], root, 0)]
    while heap and missing:
        d, node, depth = heappop(heap)
        if d != dist[node]:
            continue
        for j in owners.get(node, ()):
            if room[j]:
                room[j] -= 1
                missing -= 1
                settled[j].append(node)
        if depth == dmax:
            continue
        depth += 1
        for neighbor in row_of(node):
            nd = d + costs[neighbor]
            if nd < dist.get(neighbor, _INF):
                dist[neighbor] = nd
                parent[neighbor] = node
                heappush(heap, (nd, neighbor, depth))

    paths: List[List[int]] = []
    weights: List[float] = []
    lists: List[List[int]] = []
    for elements in settled:
        first = len(paths)
        for node in elements:
            path = []
            weight = 0
            while node >= 0:
                path.append(node)
                weight = weight + costs[node]
                node = parent[node]
            paths.append(path)
            weights.append(weight)
        lists.append(sorted(range(first, len(paths)), key=weights.__getitem__))
    return lists, paths, weights


def seed_witnesses(m, dists, seed_costs, row_of, costs, k, dmax):
    """Up to k matching subgraphs with pairwise distinct element sets,
    read off the per-keyword distance tables without exploring:
    ``(cost, connecting element, paths)`` triples, cheapest first.

    Two families.  (1) Through each connecting element ``n``, in
    ascending ``Σ_j dist_j(n)``, every keyword's shortest path to ``n``
    (:func:`_path_back`); the walk stops once the sum reaches the k-th
    witness already held.  (2) At the cheapest connecting element, the k
    cheapest ways to bind each keyword to one of its elements near it
    (:func:`_sibling_bindings`) — the top-k of a query are commonly
    sibling bindings of one structure, which (1) alone sees once.

    Every witness is something Algorithm 1 can assemble — one simple
    path per keyword, from one of its elements to the connecting
    element, at most ``dmax`` hops — and its cost is the fold, in keyword
    order, of the chained path costs: the float the loop computes for
    that combination.  Fewer than k come back when the tables hold fewer
    (then the walk is skipped where a count shows it in advance).
    """
    found: Dict[frozenset, tuple] = {}
    best: List[float] = []  # costs of `found`, ascending

    def offer(cost, connecting, paths):
        key = frozenset().union(*paths)
        held = found.get(key)
        if held is not None:
            if held[0] <= cost:
                return
            del best[bisect_left(best, held[0])]
        found[key] = (cost, connecting, paths)
        insort(best, cost)

    def kth():
        return best[k - 1] if len(best) >= k else _INF

    sums = dists[0]
    for row in dists[1:]:
        sums = map(add, sums, row)
    order = [(total, node) for node, total in enumerate(sums) if total != _INF]
    # At most one witness per connecting element plus k bindings: tables
    # that cannot reach k are not walked at all (a large k on a small view).
    bindings = 1
    for seeds in seed_costs:
        bindings *= len(seeds)
    if not order or len(order) + min(bindings, k) < k:
        return []
    heapify(order)

    # k == 1 needs no siblings: the cheapest connecting element's own
    # witness is the cheapest subgraph there is.
    if k > 1:
        root = order[0][1]
        lists, paths, weights = _sibling_bindings(
            root, m, seed_costs, row_of, costs, k, dmax
        )
        if all(lists):
            for combo_cost, combo in islice(
                iter_combinations(lists, weights, kth), k
            ):
                if combo_cost >= kth():
                    break
                cost = 0
                for ix in combo:
                    cost = cost + weights[ix]
                offer(cost, root, [paths[ix] for ix in combo])

    known = [{node: (node,) for node in seeds} for seeds in seed_costs]
    while order:
        total, node = heappop(order)
        if total >= kth():
            break
        walked = []
        for j in range(m):
            path = _path_back(dists[j], known[j], node, row_of, costs)
            if path is None or len(path) - 1 > dmax:
                break
            walked.append(path)
        else:
            offer(total, node, walked)
    return sorted(found.values(), key=itemgetter(0))[:k]


def seed_threshold(m, dists, seed_costs, row_of, costs, k, dmax) -> float:
    """An upper bound on the k-th cost Algorithm 2 will end with: the
    k-th cheapest witness, widened by :data:`_SEED_SLACK`; +inf when the
    tables show fewer than k witnesses."""
    witnesses = seed_witnesses(m, dists, seed_costs, row_of, costs, k, dmax)
    if len(witnesses) < k:
        return _INF
    return witnesses[k - 1][0] * (1 + _SEED_SLACK)

