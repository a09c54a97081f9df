"""Algorithm 1: cost-ordered exploration for minimal matching subgraphs.

Cursors start at every keyword element and expand outward over the augmented
summary graph, always cheapest-first across all keyword queues (implemented
as one global heap — taking the global minimum is exactly "the top element
of each Q_i").  Both vertices and edges are visited; expansion skips any
element already on the path (distinct, acyclic paths).  Every registration
triggers the Algorithm 2 top-k check, and the invariant behind the
guarantee — cursors pop in non-decreasing cost order (Theorem 1) — holds
because element costs are strictly positive.  What the loop reads lives
where the paper puts it: the plan's view and bound tables in
:mod:`repro.summary.substrate`, the candidate list and its combination
enumerator in :mod:`repro.core.topk`, the seed in :mod:`repro.core.seed`.

Implementation notes (performance, same semantics):

* the loop, the tables, the seed walk and the emitted subgraphs index the
  view's ``rows`` / ``costs`` directly: one id space, canonical ranks, so
  nothing is translated and equal-cost ties rank as a function of the
  abstract graph (a maintained and a rebuilt index rank identically);
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
  (:func:`~repro.core.topk.iter_combinations`, whose chained cost
  arithmetic is part of the contract) and cut off at the candidate
  list's current k-th cost — both when consuming them and inside the
  enumeration heap, so long per-keyword lists cannot allocate frontier
  state quadratically;
* admissible per-keyword completion bounds (Section VI-A/IX, "indexing
  connectivity") are applied twice: a child whose cheapest possible
  completion cannot beat the current k-th candidate is never given a
  cursor, and a cursor that was queued before the k-th cost fell is
  discarded when popped.  The k-th cost only ever falls, so the push-time
  check drops a subset of what the pop-time check would, and neither can
  change the answer (the unbounded loop they are checked against is the
  test oracle's, ``tests/reference_exploration.py``).  The tables are
  kept on the query plan's view, so a repeated query skips them;
* both checks compare against ``min(k-th cost, threshold)``, the
  threshold being Algorithm 2's **seed** read off the same tables; nothing
  else reads it.  It is **checked, not trusted**: a cursor the seed
  pruned had ``cost + bound >= threshold``, so everything it could have
  completed costs at least the threshold, and a run that ends with k
  candidates strictly below it has lost nothing — it is the unseeded
  run's list, ties and all.  A run that ends otherwise (a witness that
  the per-element cap of k paths, not the graph, kept the loop from
  assembling) is repeated without the seed and counted
  (``ExplorationResult.seed_fallback``, ``/stats``
  ``exploration.seed_fallbacks``): a wrong witness can cost a second
  exploration, never an answer.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from typing import Dict, List, Tuple

from repro.core.seed import seed_threshold
from repro.core.subgraph import MatchingSubgraph
from repro.core.topk import CandidateList, iter_combinations
from repro.summary.augmentation import AugmentedSummaryGraph
from repro.summary.substrate import BoundTables, _build_substrate_view, _completion_bounds

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



# ----------------------------------------------------------------------
# The exploration loop (Algorithm 1 pops, Algorithm 2 registrations)
# ----------------------------------------------------------------------


def explore_soa(seed_lists, m, view, nets, candidates, k, dmax, threshold=_INF):
    """The cost-ordered pop loop on structure-of-arrays cursors.

    ``seed_lists[i]`` holds ``(element, cost)`` origin pairs in canonical
    seeding order.  Cursors are one packed ``(element, keyword, parent,
    distance)`` tuple plus a parallel cost list, indexed by creation
    order; heap entries are ``(cost, index)`` pairs, so equal costs pop
    in creation order.  ``nets`` holds the per-keyword net completion
    tables (``BoundTables.nets``); ``threshold`` is the seed the two
    bound checks start from (:func:`seed_threshold`) — they prune
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
                if child_cost + kw_nets[neighbor] >= cut:
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
    """Run Algorithms 1+2 and return the k cheapest matching subgraphs,
    with the completion bounds of Section VI-A/IX always on: the plan's
    tables and seed threshold are looked up, or computed once and kept on
    its view, and a refuted seed costs one unseeded rerun
    (``seed_fallback`` on the result — see the module docstring).

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
    guided, use_vectorized:
        ``True`` and ``None`` only (anything else is a ``TypeError``):
        shims for the frozen ``perf/tracing.py``, which passes
        ``EngineSnapshot.guided`` / ``.use_vectorized`` (ROADMAP item 5(b)).
    """
    if use_vectorized is not None or guided is not True:
        raise TypeError("explore_top_k() takes guided=True, use_vectorized=None only")
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

    seed_costs = [dict(pairs) for pairs in seed_lists]
    # The tables are a function of the view (its costs and adjacency)
    # and of the plan's keyword elements, so they live on the view;
    # racing searches that both miss store equal tables.
    row_of = view.rows.__getitem__
    tables = view.tables
    if tables is None:
        tables = view.tables = BoundTables(
            *_completion_bounds(m, seed_costs, row_of, costs, view.total), costs
        )
    nets = tables.nets
    # The seed: a pure function of the tables, k and dmax, so racing
    # searches that both miss store equal floats.
    threshold = tables.thresholds.hit((k, dmax))
    if threshold is None:
        threshold = seed_threshold(m, tables.dists, seed_costs, row_of, costs, k, dmax)
        tables.thresholds.put((k, dmax), threshold)

    candidates = CandidateList(k)
    created, popped, pruned, max_queue, terminated_by = explore_soa(
        seed_lists, m, view, nets, candidates, k, dmax, threshold
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
            seed_lists, m, view, nets, candidates, k, dmax
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
