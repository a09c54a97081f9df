"""Algorithm 1: cost-ordered exploration for minimal matching subgraphs.

Cursors start at every keyword element and expand outward over the augmented
summary graph, always cheapest-first across all keyword queues (implemented
as one global heap — taking the global minimum is exactly "the top element
of each Q_i").  Both vertices and edges are visited; expansion skips any
element already on the path (distinct, acyclic paths).  Every registration
triggers the Algorithm 2 top-k check, and the invariant behind the
guarantee — cursors pop in non-decreasing cost order (Theorem 1) — holds
because element costs are strictly positive.

Implementation notes (performance, same semantics):

* every plan's view is **one id space**: an element's id is its rank in
  the canonical order — one stable repr sort of the base and overlay
  elements, base first among equal reprs — so the loop, the bound tables,
  the seed walk and the emitted subgraphs all index the view's rows and
  costs directly, with no translation.  Tie-breaking among equal-cost
  candidates, and therefore the returned ranking, is then a function of
  the abstract graph: an incrementally maintained index and a freshly
  rebuilt one rank identically.  The base graph's part of the numbering
  is interned once per graph version (:mod:`repro.summary.substrate`); a
  view merges the O(#matches) overlay elements into it, once per plan;
* cursors live in **structure-of-arrays** lists indexed by creation order
  (one packed ``(element, keyword, parent, distance)`` tuple plus a
  parallel cost list); heap entries are ``(cost, index)`` pairs, so the
  creation counter is the tie-break among equal costs.  No object is
  constructed per cursor, and nothing per cursor is GC-tracked beyond one
  tuple — per-cursor objects or path sets were measured and rejected:
  hundreds of thousands of live containers make garbage collection
  dominate on k>=20 workloads;
* the cycle check is one ancestor set per *expanded* cursor (a C-level
  union with the parent's set), not a walk per neighbor;
* per-element registration state is a flat list of per-keyword buckets,
  updated inline (no wrapper objects or method calls on the hot path);
* pushes are pruned when the target element already holds k registered
  paths for the cursor's keyword (pop order is cost-monotone, so such a
  cursor could never register);
* new candidate combinations are enumerated best-first
  (:func:`iter_combinations`) and cut off at the candidate list's current
  k-th cost — both when consuming them and inside the enumeration heap,
  so long per-keyword lists cannot allocate frontier state
  quadratically.  A combination's cost is the *chained* sum along the
  successor path that discovered it (``cost + w[next] - w[current]``),
  not a fresh sum of its members: the two can differ in the last ulp,
  which can flip the consumer's ``>= kth_cost`` break, so the literal
  Algorithm 2 the tests compare against
  (``tests/reference_exploration.py``) and this enumerator replay the
  same chains and agree value for value;
* admissible per-keyword completion bounds (Section VI-A/IX, "indexing
  connectivity") are applied twice: a child whose cheapest possible
  completion cannot beat the current k-th candidate is never given a
  cursor, and a cursor that was queued before the k-th cost fell is
  discarded when popped.  The k-th cost only ever falls, so the push-time
  check drops a subset of what the pop-time check would, and neither can
  change the answer (``guided=False`` switches both off and is kept only
  as the identity oracle).  The bound tables are kept on the query
  plan's view, so a repeated query skips them entirely;
* Algorithm 2 **starts with a threshold**.  On its own it can prune only
  once k candidates exist, and most of a request's cursors are created
  before that, against a k-th cost of +inf — although the per-keyword
  distance tables the bounds are built from already describe concrete
  matching subgraphs.  :func:`seed_witnesses` reads up to k of them off
  the tables (no exploration: shortest paths walked back through the
  tables, plus the cheapest sibling bindings at the cheapest connecting
  element) and :func:`seed_threshold` takes the k-th cheapest as an upper
  bound on the k-th cost the run will end with; both bound checks then
  compare against ``min(k-th cost, threshold)`` from the first pop on.
  Nothing else in the loop reads the threshold.  It is **checked, not
  trusted**: a cursor the seed pruned had ``cost + bound >= threshold``,
  so everything it could have completed costs at least the threshold,
  and a run that ends with k candidates strictly below the threshold has
  therefore lost nothing — it is the unseeded run's list, ties and all.
  A run that ends otherwise (a witness that the per-element cap of k
  paths, not the graph, kept the loop from assembling) is repeated
  without the seed and counted (``ExplorationResult.seed_fallback``,
  ``/stats`` ``exploration.seed_fallbacks``): a wrong witness can cost a
  second exploration, never an answer.  The threshold is cached beside
  the tables per ``(k, dmax)``; ``guided=False`` runs unseeded;
* the loop and its bound tables are pure Python and run the same on every
  install: one implementation computes the tables, the per-keyword
  Dijkstra of :func:`_completion_bounds`.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left, insort
from heapq import heapify, heappop, heappush
from itertools import islice
from operator import add, itemgetter, sub
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.core.subgraph import MatchingSubgraph
from repro.core.topk import CandidateList
from repro.summary.augmentation import AugmentedSummaryGraph
from repro.summary.substrate import BoundTables, checked_cost

#: Default bound on path length, counted in *elements* (a vertex→vertex hop
#: crosses two elements: the edge and the far vertex).
DEFAULT_DMAX = 10

_INF = float("inf")


class ExplorationResult:
    """Top-k subgraphs plus diagnostics of one exploration run."""

    __slots__ = (
        "subgraphs",
        "cursors_created",
        "cursors_popped",
        "cursors_pruned",
        "candidates_offered",
        "terminated_by",
        "max_queue_size",
        "seed_threshold",
        "seed_fallback",
    )

    def __init__(
        self,
        subgraphs: List[MatchingSubgraph],
        cursors_created: int,
        cursors_popped: int,
        cursors_pruned: int,
        candidates_offered: int,
        terminated_by: str,
        max_queue_size: int,
        seed_threshold: float = _INF,
        seed_fallback: bool = False,
    ):
        self.subgraphs = subgraphs
        self.cursors_created = cursors_created
        self.cursors_popped = cursors_popped
        self.cursors_pruned = cursors_pruned
        self.candidates_offered = candidates_offered
        self.terminated_by = terminated_by
        self.max_queue_size = max_queue_size
        #: The threshold the run started with (+inf: it started without
        #: one), and whether the run refuted it — in which case every
        #: other field describes the unseeded rerun.
        self.seed_threshold = seed_threshold
        self.seed_fallback = seed_fallback

    def __repr__(self):
        return (
            f"ExplorationResult(subgraphs={len(self.subgraphs)}, "
            f"popped={self.cursors_popped}, terminated_by={self.terminated_by!r})"
        )


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
        # (bounds, nets) pair: per-keyword `bounds[kw][e] - costs[e]`
        # tables precomputed for the pop-time prune check, keyed on the
        # identity of the bounds object they were folded from.
        "net_bounds",
        # The plan's BoundTables (None until a guided run built them).
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
    view.net_bounds = None
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
    """Per-keyword admissible completion bounds L_i(n) (guided exploration),
    and the per-keyword distance tables they were built from.

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


# ----------------------------------------------------------------------
# The seed threshold (witness subgraphs read off the distance tables)
# ----------------------------------------------------------------------

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


# ----------------------------------------------------------------------
# The exploration loop (Algorithm 1 pops, Algorithm 2 registrations)
# ----------------------------------------------------------------------


def explore_soa(seed_lists, m, view, bounds, candidates, k, dmax, threshold=_INF):
    """The cost-ordered pop loop on structure-of-arrays cursors.

    ``seed_lists[i]`` holds ``(element, cost)`` origin pairs in canonical
    seeding order.  Cursors are one packed ``(element, keyword, parent,
    distance)`` tuple plus a parallel cost list, indexed by creation
    order; heap entries are ``(cost, index)`` pairs, so equal costs pop
    in creation order.  ``bounds`` is the per-keyword completion table or
    ``None`` for the unbounded oracle run; ``threshold`` is the seed the
    two bound checks start from (:func:`seed_threshold`) — they prune
    against ``min(k-th cost, threshold)``, everything else reads the k-th
    cost alone.  Every counter increment,
    pruning decision, offer and termination check is that of the literal
    Algorithm 1/2 in ``tests/reference_exploration.py`` — the identity
    suites assert subgraphs and diagnostics match it bit for bit.

    Returns ``(created, popped, pruned, max_queue, terminated_by)``;
    accepted subgraphs accumulate in ``candidates``.
    """
    costs = view.costs
    rows = view.rows

    cursors: List[Tuple[int, int, int, int]] = []
    c_cost: List[float] = []
    cur_append = cursors.append
    cost_append = c_cost.append

    heap: List[Tuple[float, int]] = []
    created = 0
    for i, pairs in enumerate(seed_lists):
        for element, cost in pairs:
            cur_append((element, i, -1, 0))
            cost_append(cost)
            heap.append((cost, created))
            created += 1
    heapify(heap)

    # Per-element registration state: m per-keyword buckets, ``state[i]``
    # holding the cursors that reached the element from keyword i in
    # ascending cost order (pop order guarantees this), capped at k — the
    # paper's space bound of k cheapest paths per (element, keyword).
    states: Dict[int, List[List[int]]] = {}
    states_get = states.get
    # A cursor's path and its element set are fixed at creation;
    # registrations re-enumerate the same cursors many times, so both are
    # memoized by cursor index.  MatchingSubgraph copies the path lists it
    # is handed, so sharing them is safe.
    path_cache: Dict[int, list] = {}
    paths_get = path_cache.get
    pset_cache: Dict[int, frozenset] = {}
    anc_cache: Dict[int, set] = {}
    from_parts = MatchingSubgraph.from_parts

    def path_of(ix):
        path = paths_get(ix)
        if path is None:
            parts = []
            append = parts.append
            probe = ix
            while probe >= 0:
                cu = cursors[probe]
                append(cu[0])
                probe = cu[2]
            parts.reverse()
            # Stored as a tuple: MatchingSubgraph's path normalization
            # (tuple of tuples) then reuses the object instead of copying.
            path = tuple(parts)
            path_cache[ix] = path
            pset_cache[ix] = frozenset(parts)
        return path

    kth_cost = candidates.kth_cost
    accept = candidates.accept
    by_key_get = candidates._by_key.get
    srt = candidates._sorted
    kth = kth_cost()
    # What the bound checks compare against: min(kth, threshold), kept
    # beside kth wherever kth moves.
    cut = kth if kth < threshold else threshold
    n_found = len(candidates)
    dup_offers = 0

    # Net completion bounds: the raw table enters an element once more
    # while a cursor's cost already covers it (see _completion_bounds), so
    # every check needs ``bounds[kw][e] - costs[e]``; the subtraction is
    # folded once per table and cached on the view, keyed by the bounds
    # object's identity.
    nets = None
    if bounds is not None:
        cached_nets = view.net_bounds
        if cached_nets is not None and cached_nets[0] is bounds:
            nets = cached_nets[1]
        else:
            nets = [list(map(sub, brow, costs)) for brow in bounds]
            view.net_bounds = (bounds, nets)

    kw_nets = None
    popped = 0
    pruned = 0
    max_queue = 0
    terminated_by = "exhausted"
    hpop = heappop
    hpush = heappush

    while heap:
        queue_size = len(heap)
        if queue_size > max_queue:
            max_queue = queue_size
        cursor_cost, ci = hpop(heap)
        popped += 1
        element, kw, par, distance = cursors[ci]

        if distance > dmax:
            continue

        # Bound check: if even the cheapest completion of this path
        # cannot beat the k-th candidate, the cursor is dead weight.
        # Children are checked before they are pushed too; this pop-time
        # check stays because the k-th cost may have fallen since.
        if nets is not None:
            kw_nets = nets[kw]
            if cursor_cost + kw_nets[element] >= cut:
                pruned += 1
                continue

        state = states_get(element)
        if state is None:
            state = ([], []) if m == 2 else [[] for _ in range(m)]
            states[element] = state
        bucket = state[kw]
        if len(bucket) >= k:
            pruned += 1
            continue
        bucket.append(ci)

        # Expand to all neighbors not already on the path (Alg 1 lines
        # 13-22).  Registration happened, so paths of length dmax still
        # contribute to connecting elements.
        if distance < dmax:
            # One ancestor set per expansion is the cycle check.  A
            # child's path extends its parent's by one element, and a
            # child only exists because its parent expanded (and cached
            # its set), so each set is one C-level union, not a walk.
            if par >= 0:
                ancestors = anc_cache[par] | {element}
            else:
                ancestors = {element}
            anc_cache[ci] = ancestors
            next_distance = distance + 1
            for neighbor in rows[element]:
                if neighbor in ancestors:
                    continue
                neighbor_state = states_get(neighbor)
                if neighbor_state is not None and len(neighbor_state[kw]) >= k:
                    pruned += 1
                    continue
                child_cost = cursor_cost + costs[neighbor]
                # The bound applied before the cursor exists: the same
                # float expression the pop-time check evaluates, against a
                # k-th cost that only ever falls — so every child dropped
                # here would have been discarded at its pop, and skipping
                # its cursor, cost slot and heap entry cannot change the
                # answer.
                if kw_nets is not None and child_cost + kw_nets[neighbor] >= cut:
                    pruned += 1
                    continue
                cur_append((neighbor, kw, ci, next_distance))
                cost_append(child_cost)
                hpush(heap, (child_cost, created))
                created += 1

        # Algorithm 2: build the new candidate subgraphs this registration
        # enables — combinations that use this cursor for its keyword and
        # any registered path for every other keyword, enumerated
        # best-first.  Enumeration stops when (a) the combination cost
        # reaches the k-th candidate cost (ascending order: nothing later
        # can enter the top-k), or (b) k *distinct element sets* have been
        # produced here — any further combination is dominated by k
        # already-offered candidates at this element that cost no more.
        if all(state):
            # Cheapest combination = the per-keyword list heads (this
            # cursor for its own keyword).  Same fold order as the
            # enumerator's start sum; if it already cannot beat the k-th
            # candidate, the enumerator's first yield would hit the break
            # below before offering anything — skip building it at all
            # (the dominant case once the candidate list saturates).
            first_cost = 0
            for i in range(m):
                first_cost = first_cost + c_cost[state[i][0] if i != kw else ci]
            if n_found >= k and first_cost >= kth:
                pass
            elif m == 2:
                # The dominant registration shape: this cursor is the
                # only entry for its own keyword, so the combination
                # stream is an ascending scan of the other keyword's
                # bucket — the iter_combinations singleton reduction,
                # inlined without the generator machinery.
                olist = state[1 - kw]
                olen = len(olist)
                distinct_sets = set()
                combo_cost = first_cost
                pc = path_of(ci)
                sc = pset_cache[ci]
                wc = c_cost[ci]
                oi = 0
                while True:
                    if n_found >= k and combo_cost >= kth:
                        break
                    ox = olist[oi]
                    po = path_of(ox)
                    if kw == 0:
                        subgraph_cost = 0 + wc + c_cost[ox]
                    else:
                        subgraph_cost = 0 + c_cost[ox] + wc
                    key = sc | pset_cache[ox]
                    existing = by_key_get(key)
                    if existing is None or subgraph_cost < existing.cost:
                        paths = [pc, po] if kw == 0 else [po, pc]
                        accept(
                            key,
                            existing,
                            from_parts(element, paths, key, subgraph_cost),
                        )
                        n_found = len(srt)
                        kth = srt[k - 1][0] if n_found >= k else _INF
                        cut = kth if kth < threshold else threshold
                    else:
                        dup_offers += 1
                    distinct_sets.add(key)
                    if len(distinct_sets) >= k:
                        break
                    oi += 1
                    if oi >= olen:
                        break
                    combo_cost = combo_cost + c_cost[olist[oi]] - c_cost[ox]
            else:
                lists = [state[i] if i != kw else (ci,) for i in range(m)]
                distinct_sets = set()
                for combo_cost, combo in iter_combinations(lists, c_cost, kth_cost):
                    if n_found >= k and combo_cost >= kth:
                        break
                    paths = []
                    key_sets = []
                    subgraph_cost = 0
                    for ix in combo:
                        paths.append(path_of(ix))
                        key_sets.append(pset_cache[ix])
                        subgraph_cost = subgraph_cost + c_cost[ix]
                    key = frozenset().union(*key_sets)
                    existing = by_key_get(key)
                    if existing is None or subgraph_cost < existing.cost:
                        accept(
                            key,
                            existing,
                            from_parts(element, paths, key, subgraph_cost),
                        )
                        n_found = len(srt)
                        kth = srt[k - 1][0] if n_found >= k else _INF
                        cut = kth if kth < threshold else threshold
                    else:
                        dup_offers += 1
                    distinct_sets.add(key)
                    if len(distinct_sets) >= k:
                        break

        # Termination check: the cheapest outstanding cursor bounds every
        # undiscovered subgraph from below.
        lowest_remaining = heap[0][0] if heap else _INF
        if kth < lowest_remaining:
            terminated_by = "threshold"
            break

    if dup_offers:
        # Duplicate offers rejected by the inline pre-check are still
        # offers: the counter is flushed once.
        candidates.offered += dup_offers

    return created, popped, pruned, max_queue, terminated_by


def explore_top_k(
    augmented: AugmentedSummaryGraph,
    element_costs,
    k: int = 10,
    dmax: int = DEFAULT_DMAX,
    guided: bool = True,
    use_vectorized: None = None,
) -> ExplorationResult:
    """Run Algorithms 1+2 and return the k cheapest matching subgraphs.

    Parameters
    ----------
    augmented:
        The augmented summary graph with per-keyword element sets K_i.
        Its graph must be a summary graph or an overlay on one — something
        with an ``exploration_substrate()`` — or ``ValueError`` is raised.
    element_costs:
        Positive cost per element key (from a :class:`~repro.scoring.cost.CostModel`).
    k:
        Number of subgraphs to compute.
    dmax:
        Maximum path length in elements; cursors at distance ``dmax`` are
        registered but not expanded.
    guided:
        ``True`` (default): the completion bounds of Section VI-A/IX
        ("indexing connectivity") are part of the algorithm — per-keyword
        cheapest-completion tables are looked up (or computed once and
        kept on the query plan's view), a child that provably cannot contribute
        a candidate better than the current k-th never gets a cursor, and
        a cursor that lost that race while queued is discarded when
        popped; until k candidates exist, "the current k-th" is the seed
        threshold read off the same tables (:func:`seed_threshold`),
        checked when the run ends and dropped for one rerun if the run
        refuted it (``seed_fallback`` on the result — see the module
        docstring for why the check makes the seed safe).  ``False`` runs
        the unbounded, unseeded loop.  The result is
        identical; only the work changes — which is the one reason
        ``False`` still exists: it is the oracle the bounds are tested
        against (``test_guided_equivalence.py``) and the Section VI-C
        ablation (``benchmarks/test_ablation_guarantee.py``).
    use_vectorized:
        Accepts only ``None``; anything else is a ``TypeError``.  The one
        bound-table implementation left needs no choosing, and the keyword
        stays only for the frozen ``perf/tracing.py``, which passes
        ``EngineSnapshot.use_vectorized`` (ROADMAP item 5(b)).
    """
    if use_vectorized is not None:
        raise TypeError("explore_top_k() takes use_vectorized=None only")
    ordered_sets = [ks for ks in augmented.sorted_keyword_elements() if ks]
    m = len(ordered_sets)
    if m == 0:
        return ExplorationResult([], 0, 0, 0, 0, "no-keywords", 0)

    view = _build_substrate_view(augmented, element_costs)
    costs = view.costs
    id_of = view.ids.get

    # Deterministic seeding: K_i are sets, so a canonical order (by key
    # repr, cached on the augmented graph) makes tie-breaking — and
    # therefore ranking among equal-cost subgraphs — reproducible across
    # processes.
    seed_lists: List[List[Tuple[int, float]]] = [[] for _ in range(m)]
    for pairs, elements in zip(seed_lists, ordered_sets):
        for key in elements:
            element = id_of(key)
            if element is None:
                raise KeyError(f"keyword element {key!r} not in augmented graph")
            pairs.append((element, costs[element]))

    # The single seam between the algorithm and its oracle: without
    # `bounds` the loop runs unbounded — same subgraphs, several times the
    # cursors — which is what the identity tests compare against.
    bounds: Optional[List[List[float]]] = None
    threshold = _INF
    if guided:
        seed_costs = [dict(pairs) for pairs in seed_lists]
        # The tables are a function of the view (its costs and adjacency)
        # and of the plan's keyword elements, so they live on the view;
        # racing searches that both miss store equal tables.
        row_of = view.rows.__getitem__
        tables = view.tables
        if tables is None:
            tables = view.tables = BoundTables(
                *_completion_bounds(m, seed_costs, row_of, costs, view.total)
            )
        bounds = tables.bounds
        # The seed: a pure function of the tables, k and dmax, so racing
        # searches that both miss store equal floats.
        threshold = tables.thresholds.hit((k, dmax))
        if threshold is None:
            threshold = seed_threshold(
                m, tables.dists, seed_costs, row_of, costs, k, dmax
            )
            tables.thresholds.put((k, dmax), threshold)

    candidates = CandidateList(k)
    created, popped, pruned, max_queue, terminated_by = explore_soa(
        seed_lists, m, view, bounds, candidates, k, dmax, threshold
    )
    # The seed is checked, not trusted.  Every cursor it pruned had
    # cost + bound >= threshold, so whatever that cursor could have
    # completed costs at least the threshold: a run that ends with k
    # candidates below it lost nothing that belongs in the answer (nor
    # anything that ties with its last entry) and is the unseeded run's
    # list.  A run that does not — a witness the loop's per-element cap of
    # k paths kept it from assembling — is repeated without the seed.
    seed_fallback = threshold != _INF and candidates.kth_cost() >= threshold
    if seed_fallback:
        candidates = CandidateList(k)
        created, popped, pruned, max_queue, terminated_by = explore_soa(
            seed_lists, m, view, bounds, candidates, k, dmax
        )
    return ExplorationResult(
        subgraphs=[sg.translated(view.keys.__getitem__) for sg in candidates.best()],
        cursors_created=created,
        cursors_popped=popped,
        cursors_pruned=pruned,
        candidates_offered=candidates.offered,
        terminated_by=terminated_by,
        max_queue_size=max_queue,
        seed_threshold=threshold,
        seed_fallback=seed_fallback,
    )
