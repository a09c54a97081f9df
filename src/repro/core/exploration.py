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

* the query-invariant part of element interning lives in a **version-keyed
  CSR substrate** cached on the base summary graph
  (:mod:`repro.summary.substrate`): canonical key ↔ id tables and flat
  ``array('l')`` adjacency rows are built once per graph version; per query
  only the O(#matches) overlay elements get appended ids and adjacency
  rows, so exploration setup is proportional to the keyword matches, not
  the summary;
* result identity is anchored to the **canonical merged id space** — the
  ids interning base + overlay from scratch in repr order would assign.
  Exploration runs on the substrate's append-only ids but emits subgraphs
  in merged ids (a monotone O(log #matches) translation), so tie-breaking
  among equal-cost candidates, and therefore the returned ranking, is a
  function of the abstract graph: an incrementally maintained index and a
  freshly rebuilt one rank identically;
* the cycle check walks the parent chain (≤ dmax pointer hops, zero
  allocation) — per-cursor path sets/bitmasks were measured and rejected:
  keeping hundreds of thousands of GC-tracked containers alive makes
  garbage collection dominate on k≥20 workloads (see the hot loop);
* per-element registration state is a flat list of per-keyword buckets,
  updated inline (no wrapper objects or method calls on the hot path);
* pushes are pruned when the target element already holds k registered
  paths for the cursor's keyword (pop order is cost-monotone, so such a
  cursor could never register);
* new candidate combinations are enumerated best-first and cut off at the
  candidate list's current k-th cost — both when consuming them and inside
  the enumeration heap, so long per-keyword lists cannot allocate
  frontier state quadratically;
* admissible per-keyword completion bounds (Section VI-A/IX, "indexing
  connectivity") are applied twice: a child whose cheapest possible
  completion cannot beat the current k-th candidate is never given a
  cursor, and a cursor that was queued before the k-th cost fell is
  discarded when popped.  The k-th cost only ever falls, so the push-time
  check drops a subset of what the pop-time check would, and neither can
  change the answer (``guided=False`` switches both off and is kept only
  as the identity oracle).  The per-keyword Dijkstra tables behind the
  bounds run on the CSR arrays and are cached on the substrate per (cost
  table, keyword-element sets, overlay signature), so repeated queries
  skip them entirely;
* when numpy is importable (the ``repro[fast]`` extra), exploration takes
  the **vectorized kernel path** (:mod:`repro.core.kernels`): the bound
  tables become batched relaxation sweeps over zero-copy ndarray views of
  the CSR arrays, the pop loop runs on structure-of-arrays cursors, and
  assembled per-query views are cached on the substrate per (overlay
  signature, cost token).  Output — subgraphs *and* diagnostics — is
  byte-identical by contract; ``use_vectorized=False`` (or a missing
  numpy) keeps this scalar reference path, which the property tests use
  as the oracle.
"""

from __future__ import annotations

import heapq
from array import array
from bisect import bisect_left, bisect_right
from operator import itemgetter
from typing import Callable, Dict, Hashable, Iterator, List, Optional, Sequence, Tuple

from repro.core import kernels
from repro.core.cursor import Cursor
from repro.core.subgraph import MatchingSubgraph
from repro.core.topk import CandidateList
from repro.scoring.cost import split_cost_mapping
from repro.summary.augmentation import AugmentedSummaryGraph
from repro.summary.substrate import checked_cost

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
    ):
        self.subgraphs = subgraphs
        self.cursors_created = cursors_created
        self.cursors_popped = cursors_popped
        self.cursors_pruned = cursors_pruned
        self.candidates_offered = candidates_offered
        self.terminated_by = terminated_by
        self.max_queue_size = max_queue_size

    def __repr__(self):
        return (
            f"ExplorationResult(subgraphs={len(self.subgraphs)}, "
            f"popped={self.cursors_popped}, terminated_by={self.terminated_by!r})"
        )


class _SubstrateView:
    """Per-query id space: a cached substrate plus appended overlay extras.

    Base elements keep their substrate ids ``0..n-1``; the overlay's
    O(#matches) elements get ids ``n..n+m-1`` in canonical (repr-sorted)
    order.  ``to_merged`` translates a substrate id to the rank the element
    holds in the *merged* canonical order over base + overlay, which is
    what emitted subgraphs are expressed in (``None`` when there are no
    extras: the two id spaces coincide).
    """

    __slots__ = (
        "substrate",
        "total",
        "extra_keys",
        "rows",
        "costs",
        "cost_token",
        "cost_table",
        "id_of",
        "to_merged",
        "decode",
        # Lazy per-view caches for the vectorized kernel path: the costs as
        # a plain list (scalar indexing of array('d') is slower in the SoA
        # loop), the overlay patch-edge ndarrays (False = not built), and
        # the shared adjacency-row memo (base rows boxed into tuples once,
        # reused across every exploration on this view).
        "costs_list",
        "np_patches",
        "row_memo",
        # (bounds, nets) pair: per-keyword `bounds[kw][e] - costs[e]`
        # tables precomputed for the pop-time prune check, keyed on the
        # identity of the bounds object they were folded from.
        "net_bounds",
    )


def _build_substrate_view(
    augmented: AugmentedSummaryGraph, element_costs
) -> _SubstrateView:
    """Assemble the per-query view over the graph's cached substrate."""
    graph = augmented.graph
    owner = getattr(graph, "base", graph)
    factory = getattr(owner, "exploration_substrate", None)
    if factory is None:
        raise ValueError(
            "exploration requires a summary graph (or overlay) "
            f"with exploration_substrate(); got {type(graph).__name__}"
        )
    if owner is graph:
        added_keys: Tuple[Hashable, ...] = ()
        added_incident = {}
    else:
        added_keys = graph.added_element_keys()
        added_incident = graph.added_incident_map()
    substrate = factory()

    # Cost token first: it is both the cost-slot recipe and half of the
    # view-cache key.  A view's content is fully determined by (overlay
    # element keys, overlay incident map, cost token) over one substrate —
    # edge keys encode their endpoints, so the extras' adjacency follows
    # from the keys — which makes cached views safe to share across
    # repeated queries (they are never mutated after assembly).
    overrides, base_table = split_cost_mapping(element_costs)
    base_array = None
    if base_table is not None:
        try:
            base_array = substrate.cost_array(base_table)
        except (KeyError, ValueError):
            # Two-layer mapping whose base map alone is not a valid cost
            # table (a missing element, or a non-positive entry masked by a
            # per-query override) — read every element through the full
            # mapping instead, which re-validates with reference semantics.
            base_table = None
    view_key = None
    if base_table is not None:
        cost_token = (id(base_table), frozenset(overrides.items()))
        view_key = (
            added_keys,
            tuple((key, tuple(edges)) for key, edges in added_incident.items()),
            cost_token,
        )
        cached = substrate.get_view(view_key, base_table)
        if cached is not None:
            return cached

    n = substrate.n
    ids = substrate.ids
    m = len(added_keys)

    view = _SubstrateView()
    view.substrate = substrate
    view.total = n + m
    view.costs_list = None
    view.np_patches = False
    view.row_memo = None
    view.net_bounds = None

    if m:
        # Stable repr-only sort: elements with equal reprs keep overlay
        # insertion order, exactly like the canonical heap-merge.
        extra_pairs = sorted(((repr(key), key) for key in added_keys), key=itemgetter(0))
        extra_keys = tuple(key for _, key in extra_pairs)
        base_reprs = substrate.reprs
        ins = array("l", (bisect_right(base_reprs, text) for text, _ in extra_pairs))
        extra_ranks = array("l", (ins[j] + j for j in range(m)))
        extra_ids = {key: n + j for j, key in enumerate(extra_keys)}

        def to_merged(sid: int, _ins=ins, _n=n, _ranks=extra_ranks) -> int:
            return sid + bisect_right(_ins, sid) if sid < _n else _ranks[sid - _n]

        def id_of(key, _extra=extra_ids.get, _base=ids.get) -> Optional[int]:
            sid = _extra(key)
            return sid if sid is not None else _base(key)

        def decode(
            mid: int, _ranks=extra_ranks, _keys=substrate.keys, _extra=extra_keys, _m=m
        ) -> Hashable:
            j = bisect_left(_ranks, mid)
            if j < _m and _ranks[j] == mid:
                return _extra[j]
            return _keys[mid - j]

        # Adjacency rows that differ from the substrate: every overlay
        # element, plus base vertices that gained overlay edges.  Rows are
        # ordered by merged rank — the order a full interning would expand
        # neighbors in.
        rows: Dict[int, Tuple[int, ...]] = {}
        neighbors = graph.neighbors
        for j, key in enumerate(extra_keys):
            row = []
            for nb in neighbors(key):
                sid = extra_ids.get(nb)
                row.append(sid if sid is not None else ids[nb])
            row.sort(key=to_merged)
            rows[n + j] = tuple(row)
        offsets, targets = substrate.offsets, substrate.targets
        for vkey, added in added_incident.items():
            vsid = ids.get(vkey)
            if vsid is None or not added:
                continue  # overlay vertex (handled above) or no additions
            merged_row = list(targets[offsets[vsid] : offsets[vsid + 1]])
            merged_row.extend(extra_ids[edge] for edge in added)
            merged_row.sort(key=to_merged)
            rows[vsid] = tuple(merged_row)

        view.extra_keys = extra_keys
        view.rows = rows
        view.id_of = id_of
        view.to_merged = to_merged
        view.decode = decode
    else:
        view.extra_keys = ()
        view.rows = {}
        view.id_of = ids.get
        view.to_merged = None
        view.decode = substrate.keys.__getitem__

    # Cost slots: cached base array + O(#matches) per-query entries when
    # the mapping is the cost models' (overrides, base) ChainMap; a fresh
    # fill otherwise.
    if base_table is not None:
        costs = array("d", base_array)
    else:
        costs = substrate.fresh_cost_array(element_costs)
    costs_get = element_costs.get
    for key in view.extra_keys:
        costs.append(checked_cost(key, costs_get(key)))
    if base_table is not None:
        ids_get = ids.get
        for key, value in overrides.items():
            sid = ids_get(key)
            if sid is not None:
                costs[sid] = checked_cost(key, value)
        view.cost_token = view_key[2]
    else:
        view.cost_token = None
    view.cost_table = base_table
    view.costs = costs
    if view_key is not None:
        substrate.store_view(view_key, base_table, view)
    return view


def _best_combinations(
    lists: Sequence[Sequence[Cursor]],
    cutoff: Optional[Callable[[], float]] = None,
) -> Iterator[Tuple[float, Tuple[Cursor, ...]]]:
    """Cursor tuples across per-keyword lists, cheapest-sum first.

    Each list is sorted ascending by cost, so this is the classic
    k-smallest-sums frontier search from index vector (0, …, 0); the caller
    decides when to stop consuming.  ``cutoff``, when given, returns the
    caller's current cut-off cost: successors at or above it are neither
    pushed nor remembered in ``seen`` — they could only ever be consumed
    past the caller's own stopping point (the cut-off never increases), so
    pruning them bounds the frontier and the ``seen`` set by the cut-off
    instead of letting them grow quadratically in the list lengths.
    """
    if any(not lst for lst in lists):
        return
    m = len(lists)
    start = (0,) * m
    start_cost = sum(lst[0].cost for lst in lists)
    heap: List[Tuple[float, Tuple[int, ...]]] = [(start_cost, start)]
    seen = {start}
    while heap:
        cost, indices = heapq.heappop(heap)
        yield cost, tuple(lists[i][indices[i]] for i in range(m))
        bound = cutoff() if cutoff is not None else None
        for i in range(m):
            nxt = indices[i] + 1
            if nxt < len(lists[i]):
                successor = indices[:i] + (nxt,) + indices[i + 1 :]
                if successor in seen:
                    continue
                next_cost = cost + lists[i][nxt].cost - lists[i][indices[i]].cost
                if bound is not None and next_cost >= bound:
                    continue
                seen.add(successor)
                heapq.heappush(heap, (next_cost, successor))


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
    heapq.heapify(heap)
    while heap:
        d, node = heapq.heappop(heap)
        if d != dist[node]:
            continue
        for neighbor in row_of(node):
            nd = d + costs[neighbor]
            if nd < dist[neighbor]:
                dist[neighbor] = nd
                heapq.heappush(heap, (nd, neighbor))
    return dist


def _completion_bounds(
    m: int,
    seed_costs: List[Dict[int, float]],
    row_of: Callable[[int], Sequence[int]],
    costs: Sequence[float],
    total: int,
) -> List[List[float]]:
    """Per-keyword admissible completion bounds L_i(n) (guided exploration).

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
    return bounds


def _view_row_of(view: _SubstrateView):
    """The per-element adjacency accessor of a substrate view."""
    extra_rows = view.rows
    substrate = view.substrate
    offsets = substrate.offsets
    targets = substrate.targets

    def row_of(
        element: int, _get=extra_rows.get, _t=targets, _o=offsets
    ) -> Sequence[int]:
        row = _get(element)
        return row if row is not None else _t[_o[element] : _o[element + 1]]

    return row_of


def _bounds_for(
    m: int,
    seed_costs: List[Dict[int, float]],
    row_of,
    costs,
    total: int,
    view: _SubstrateView,
    force_kernel: bool,
) -> List[List[float]]:
    """Completion bounds via the relaxation kernel when it pays off, via
    the scalar Dijkstra otherwise (or when the kernel declines a
    pathological graph) — identical values either way."""
    if force_kernel or (
        kernels.kernels_enabled() and total >= kernels.MIN_BOUNDS_TOTAL
    ):
        computed = kernels.completion_bounds_batch([(m, seed_costs, view)])[0]
        if computed is not None:
            return computed
    return _completion_bounds(m, seed_costs, row_of, costs, total)


def explore_top_k(
    augmented: AugmentedSummaryGraph,
    element_costs,
    k: int = 10,
    dmax: int = DEFAULT_DMAX,
    max_cursors: Optional[int] = None,
    guided: bool = True,
    use_vectorized: Optional[bool] = None,
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
    max_cursors:
        Optional safety bound on total cursor creations; exceeding it stops
        exploration and returns the best candidates found so far
        (``terminated_by == "budget"``).  The budget counts cursors
        actually created: a child the bounds reject before it gets a
        cursor is counted in ``cursors_pruned``, not here.
    guided:
        ``True`` (default): the completion bounds of Section VI-A/IX
        ("indexing connectivity") are part of the algorithm — per-keyword
        cheapest-completion tables are looked up (or computed once and
        cached on the substrate), a child that provably cannot contribute
        a candidate better than the current k-th never gets a cursor, and
        a cursor that lost that race while queued is discarded when
        popped.  ``False`` runs the unbounded loop.  The result is
        identical; only the work changes — which is the one reason
        ``False`` still exists: it is the oracle the bounds are tested
        against (``test_guided_equivalence.py``, ``repro eval check
        --no-guided``).
    use_vectorized:
        ``None`` (default) takes the vectorized kernel path
        (:mod:`repro.core.kernels`) whenever numpy is importable;
        ``False`` forces the scalar loop (the byte-identity oracle);
        ``True`` requires the kernels and raises when numpy is missing —
        it also forces the bound tables through the relaxation kernel
        regardless of graph size (how the property tests exercise it on
        tiny graphs).  Output is byte-identical either way — subgraphs
        and diagnostics.
    """
    ordered_sets = [ks for ks in augmented.sorted_keyword_elements() if ks]
    m = len(ordered_sets)
    candidates = CandidateList(k)

    if m == 0:
        return ExplorationResult([], 0, 0, 0, 0, "no-keywords", 0)

    view = _build_substrate_view(augmented, element_costs)
    costs: Sequence[float] = view.costs
    total = view.total
    id_of = view.id_of
    to_merged = view.to_merged
    decode = view.decode
    row_of = _view_row_of(view)

    # Resolve the vectorized kernel path before seeding: the SoA loop
    # skips Cursor construction entirely, and a forced kernel run routes
    # the bound tables through the relaxation sweeps too.
    vectorized = False
    if use_vectorized is True:
        if not kernels.kernels_enabled():
            raise ValueError(
                "vectorized exploration requires numpy (pip install "
                "repro[fast])"
            )
        vectorized = True
    elif use_vectorized is None:
        vectorized = kernels.kernels_enabled()
        if not vectorized:
            kernels._log_fallback()

    # Deterministic seeding: K_i are sets, so a canonical order (by key
    # repr, cached on the augmented graph) makes tie-breaking — and
    # therefore ranking among equal-cost subgraphs — reproducible across
    # processes.
    seed_lists: List[List[Tuple[int, float]]] = [[] for _ in range(m)]
    seed_costs: List[Dict[int, float]] = [dict() for _ in range(m)]
    for i, elements in enumerate(ordered_sets):
        pairs = seed_lists[i]
        for key in elements:
            element = id_of(key)
            if element is None:
                raise KeyError(f"keyword element {key!r} not in augmented graph")
            cost = costs[element]
            seed_costs[i][element] = cost
            pairs.append((element, cost))

    # The single seam between the algorithm and its oracle: without
    # `bounds` both loops below run unbounded — same subgraphs, several
    # times the cursors — which is what the identity tests compare against.
    bounds: Optional[List[List[float]]] = None
    if guided:
        cache_key = None
        if view.cost_token is not None:
            cache_key = (
                view.cost_token,
                view.extra_keys,
                tuple(tuple(sorted(sc.items())) for sc in seed_costs),
            )
            bounds = view.substrate.get_bounds(cache_key, view.cost_table)
        if bounds is None:
            bounds = _bounds_for(
                m, seed_costs, row_of, costs, total, view,
                force_kernel=(use_vectorized is True),
            )
            if cache_key is not None:
                view.substrate.store_bounds(cache_key, view.cost_table, bounds)

    if vectorized:
        created, popped, pruned, max_queue, terminated_by = kernels.explore_soa(
            seed_lists, m, view, bounds, candidates, k, dmax, max_cursors
        )
        return ExplorationResult(
            subgraphs=[sg.translated(decode) for sg in candidates.best()],
            cursors_created=created,
            cursors_popped=popped,
            cursors_pruned=pruned,
            candidates_offered=candidates.offered,
            terminated_by=terminated_by,
            max_queue_size=max_queue,
        )

    heap: List[Tuple[float, int, Cursor]] = []
    created = 0
    for i, pairs in enumerate(seed_lists):
        for element, cost in pairs:
            created += 1
            heap.append((cost, created, Cursor.origin_cursor(element, i, cost)))
    heapq.heapify(heap)

    # Per-element registration state: a flat list of m per-keyword buckets,
    # ``states[element][i]`` holding the cursors that reached the element
    # from keyword i in ascending cost order (pop order guarantees this),
    # capped at k — the paper's space bound of k cheapest paths per
    # (element, keyword).
    states: Dict[int, List[List[Cursor]]] = {}
    states_get = states.get
    heappush = heapq.heappush
    heappop = heapq.heappop
    kth_cost = candidates.kth_cost
    offer = candidates.offer

    popped = 0
    pruned = 0
    max_queue = 0
    terminated_by = "exhausted"

    while heap:
        queue_size = len(heap)
        if queue_size > max_queue:
            max_queue = queue_size
        _, _, cursor = heappop(heap)
        popped += 1
        element = cursor.element
        distance = cursor.distance

        if distance > dmax:
            continue

        kw = cursor.keyword
        cursor_cost = cursor.cost

        # Bound check: if even the cheapest completion of this path
        # cannot beat the k-th candidate, the cursor is dead weight.
        # (The raw bound enters `element` once more; the cursor's cost
        # already covers it, hence the subtraction — see _completion_bounds.)
        # Children are checked before they are pushed too; this pop-time
        # check stays because the k-th cost may have fallen since.
        if bounds is not None:
            completion = bounds[kw][element] - costs[element]
            if cursor_cost + completion >= kth_cost():
                pruned += 1
                continue

        state = states_get(element)
        if state is None:
            state = [[] for _ in range(m)]
            states[element] = state
        bucket = state[kw]
        if len(bucket) >= k:
            pruned += 1
            continue
        bucket.append(cursor)

        # Expand to all neighbors not already on the path (Alg 1 lines
        # 13-22; the parent is on the path, so the walk covers both
        # checks).  The cycle check deliberately walks the parent chain
        # (≤ dmax pointer hops) instead of carrying per-cursor path
        # sets/bitmasks: measured on the Fig. 6a k=100 workload, a
        # frozenset per cursor is ~25% slower end to end — hundreds of
        # thousands of live GC-tracked containers make every collection
        # scan far more expensive — while the chain walk allocates
        # nothing.  Registration happened, so paths of length dmax still
        # contribute to connecting elements.
        if distance < dmax:
            origin = cursor.origin
            next_distance = distance + 1
            kw_bounds = bounds[kw] if bounds is not None else None
            for neighbor in row_of(element):
                probe = cursor
                while probe is not None and probe.element != neighbor:
                    probe = probe.parent
                if probe is not None:
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
                if kw_bounds is not None:
                    completion = kw_bounds[neighbor] - costs[neighbor]
                    if child_cost + completion >= kth_cost():
                        pruned += 1
                        continue
                created += 1
                heappush(
                    heap,
                    (
                        child_cost,
                        created,
                        Cursor(
                            neighbor,
                            kw,
                            origin,
                            cursor,
                            next_distance,
                            child_cost,
                        ),
                    ),
                )

        # Algorithm 2: build the new candidate subgraphs this registration
        # enables — combinations that use this cursor for its keyword and
        # any registered path for every other keyword, enumerated
        # best-first.  Enumeration stops when (a) the combination cost
        # reaches the k-th candidate cost (ascending order: nothing later
        # can enter the top-k), or (b) k *distinct element sets* have been
        # produced here — any further combination is dominated by k
        # already-offered candidates at this element that cost no more.
        if all(state):
            other_lists = [state[i] if i != kw else [cursor] for i in range(m)]
            distinct_sets = set()
            for combo_cost, combo in _best_combinations(other_lists, kth_cost):
                if len(candidates) >= k and combo_cost >= kth_cost():
                    break
                if to_merged is None:
                    merged = MatchingSubgraph.from_cursors(element, combo)
                else:
                    merged = MatchingSubgraph(
                        to_merged(element),
                        [[to_merged(e) for e in c.path()] for c in combo],
                        sum(c.cost for c in combo),
                    )
                offer(merged)
                distinct_sets.add(merged.canonical_key)
                if len(distinct_sets) >= k:
                    break

        # Termination check: cheapest outstanding cursor bounds every
        # undiscovered subgraph from below.
        lowest_remaining = heap[0][0] if heap else _INF
        if candidates.should_terminate(lowest_remaining):
            terminated_by = "threshold"
            break

        if max_cursors is not None and created >= max_cursors:
            terminated_by = "budget"
            break

    subgraphs = [sg.translated(decode) for sg in candidates.best()]
    return ExplorationResult(
        subgraphs=subgraphs,
        cursors_created=created,
        cursors_popped=popped,
        cursors_pruned=pruned,
        candidates_offered=candidates.offered,
        terminated_by=terminated_by,
        max_queue_size=max_queue,
    )


# ----------------------------------------------------------------------
# Shared-frontier bound prefusion (EngineService.search_many)
# ----------------------------------------------------------------------


def prepare_guided_request(
    augmented: AugmentedSummaryGraph, element_costs
) -> Optional[tuple]:
    """``(m, seed_costs, view, cache_key)`` for prefusing one query's
    guided bound tables, or ``None`` when the query cannot share the
    substrate bounds cache (uncacheable cost mapping, no matched keywords,
    or a keyword element outside the view)."""
    ordered_sets = [ks for ks in augmented.sorted_keyword_elements() if ks]
    m = len(ordered_sets)
    if m == 0:
        return None
    view = _build_substrate_view(augmented, element_costs)
    if view.cost_token is None:
        return None
    id_of = view.id_of
    costs = view.costs
    seed_costs: List[Dict[int, float]] = [dict() for _ in range(m)]
    for i, elements in enumerate(ordered_sets):
        for key in elements:
            element = id_of(key)
            if element is None:
                return None
            seed_costs[i][element] = costs[element]
    cache_key = (
        view.cost_token,
        view.extra_keys,
        tuple(tuple(sorted(sc.items())) for sc in seed_costs),
    )
    return m, seed_costs, view, cache_key


def prefuse_guided_bounds(requests) -> int:
    """Precompute missing guided bound tables for a batch of queries in
    one fused relaxation pass (the shared-frontier mode of
    ``EngineService.search_many``).

    ``requests`` yields ``(augmented, element_costs)`` pairs, all built on
    one snapshot.  Every query's table lands in the substrate bounds
    cache under exactly the key :func:`explore_top_k` computes, so the
    subsequent per-query searches hit the cache and run unchanged —
    identity of the batch with sequential execution is structural, not
    re-proved per query.  Queries the kernel declines (no numpy,
    pathological diameter) are warmed with the scalar Dijkstra instead.
    Returns the number of tables computed.
    """
    pending = []
    seen = set()
    for augmented, element_costs in requests:
        prepared = prepare_guided_request(augmented, element_costs)
        if prepared is None:
            continue
        m, seed_costs, view, cache_key = prepared
        if cache_key in seen:
            continue
        if view.substrate.get_bounds(cache_key, view.cost_table) is not None:
            continue
        seen.add(cache_key)
        pending.append((m, seed_costs, view, cache_key))
    if not pending:
        return 0
    if kernels.kernels_enabled():
        computed = kernels.completion_bounds_batch(
            [(m, sc, v) for m, sc, v, _ in pending]
        )
    else:
        computed = [None] * len(pending)
    for (m, seed_costs, view, cache_key), bounds in zip(pending, computed):
        if bounds is None:
            bounds = _completion_bounds(
                m, seed_costs, _view_row_of(view), view.costs, view.total
            )
        view.substrate.store_bounds(cache_key, view.cost_table, bounds)
    return len(pending)
