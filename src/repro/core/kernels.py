"""Vectorized exploration kernels over the CSR substrate.

This module is the numpy side of :mod:`repro.core.exploration`.  It has
exactly one contract: **byte-identical output** — the subgraphs *and* the
diagnostics (`cursors_created/popped/pruned`, `candidates_offered`,
`terminated_by`, `max_queue_size`) of a vectorized exploration must equal
the pure-Python reference bit for bit.  Everything here is therefore
either (a) provably value-identical float arithmetic, or (b) a faithful
re-implementation that performs the same operations in the same order on
a leaner representation.  Where a tempting vectorization could not meet
(a) or (b) it was rejected, and the rejection is documented inline.

What is vectorized, and why it is safe:

* **CSR ndarray views** (:func:`csr_ndarrays`): ``numpy.frombuffer`` over
  the substrate's flat ``array('l')`` rows — or, for a bundle-loaded
  engine, over the ``memoryview('q')`` that PR 4 adopted zero-copy from
  the mmapped ``.reprobundle`` section.  No copy, no translation: the
  kernels read the exact same bytes the scalar loop reads.
* **Guided bound tables** (:func:`completion_bounds_batch`): the
  per-keyword Dijkstra sweeps of ``_completion_bounds`` become batched
  Bellman-style relaxation sweeps over all seed rows at once — a row
  gather ``dist[:, targets]``, an ``np.minimum.reduceat`` per-row merge,
  and a broadcast cost add, iterated to fixpoint.  This is bit-identical
  to Dijkstra because (1) Dijkstra's output is the least fixpoint of
  ``dist[v] = min(seed[v], min_{u in row(v)} fl(dist[u] + cost[v]))``,
  (2) IEEE-754 round-to-nearest addition is monotone in each argument,
  so ``min_u fl(dist[u] + c) == fl((min_u dist[u]) + c)`` exactly —
  min-then-add equals add-then-min — and (3) the sweep iteration starts
  above the fixpoint and decreases monotonically onto it.  Several
  queries' tables fuse into one ``R x N`` matrix: that is the shared
  frontier of ``search_many``.
* **The SoA exploration loop** (:func:`explore_soa`): the cost-ordered
  pop loop itself is inherently sequential under the identity contract
  (every pop can move the k-th cost that gates the next pop's pruning),
  so it is not batched; instead cursors live in parallel
  structure-of-arrays lists indexed by creation order — the creation
  counter doubles as the heap tie-break, exactly like the reference's
  ``(cost, created, Cursor)`` entries — which eliminates one object
  construction (7 ``object.__setattr__`` calls) per cursor and one
  generator frame per candidate registration.  Combination enumeration
  reduces out singleton dimensions (the common ``m == 2`` case becomes a
  single ascending scan over a contiguous cost list).

Rejected: enumerating ``_best_combinations`` through an
``np.add.outer`` grid with argpartition chunking.  The reference
computes each combination's cost by *chaining* adds and subtracts along
the successor path that first discovered it in the enumeration heap
(``cost + lists[i][nxt].cost - lists[i][cur].cost``), so the float value
of a combination depends on its discovery path.  A grid recomputes it as
one add and can differ in the last ulp, which can flip the consumer's
``>= kth_cost`` break and change ``candidates_offered``.  Value-identical
enumeration therefore has to replay the same successor chains, which is
what :func:`iter_combinations` does.

numpy is an optional extra (``pip install repro[fast]``).  Without it
every entry point reports itself unavailable and
:mod:`repro.core.exploration` stays on the scalar reference path; the
first such fallback logs one loud line.
"""

from __future__ import annotations

import logging
from heapq import heapify, heappop, heappush
from operator import sub
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.subgraph import MatchingSubgraph

log = logging.getLogger(__name__)

try:  # pragma: no cover - exercised by the no-numpy CI job
    import numpy as _np
except ImportError:  # pragma: no cover - exercised by the no-numpy CI job
    _np = None

_INF = float("inf")

_fallback_logged = False

#: Guided bound tables go through the batched relaxation kernel only when
#: the per-query id space has at least this many elements; below it the
#: per-sweep numpy dispatch overhead loses to the scalar Dijkstra (the
#: "tiny graph" row of the fallback matrix in docs/architecture.md).
#: ``use_vectorized=True`` overrides the threshold (property tests force
#: the kernel on the small example/DBLP graphs this way).
MIN_BOUNDS_TOTAL = 512


def kernels_enabled() -> bool:
    """True when explorations may take the vectorized path: the optional
    numpy extra is importable.  (``use_vectorized=False`` /
    ``--no-vectorized`` force the scalar path per engine.)"""
    return _np is not None


def kernel_status() -> Dict[str, object]:
    """Machine-readable kernel state for ``/stats`` and diagnostics."""
    return {
        "numpy": None if _np is None else _np.__version__,
        "active": kernels_enabled(),
    }


def status_line() -> str:
    """One-line kernel state for ``repro --version`` and the benchmark
    harness's run header."""
    if _np is None:
        return "kernels: off (numpy not installed; pip install repro[fast])"
    return f"kernels: numpy {_np.__version__} (active)"


def _log_fallback() -> None:
    """One loud line the first time a search runs without the kernels."""
    global _fallback_logged
    if not _fallback_logged:
        _fallback_logged = True
        log.warning(
            "vectorized exploration kernels unavailable (numpy not "
            "installed); falling back to the pure-Python reference path"
        )


# ----------------------------------------------------------------------
# Zero-copy CSR ndarray views
# ----------------------------------------------------------------------


def _as_int64(buf):
    """An int64 ndarray over ``buf`` — zero-copy when the buffer already
    holds 8-byte integers (``array('l')`` on LP64, or the bundle loader's
    mmap-backed ``memoryview('q')``), an explicit copy otherwise."""
    if getattr(buf, "itemsize", None) == 8:
        try:
            return _np.frombuffer(buf, dtype=_np.int64)
        except (ValueError, BufferError):  # pragma: no cover - odd buffers
            pass
    return _np.array(buf, dtype=_np.int64)  # pragma: no cover - ILP32 only


def _as_float64(buf):
    """A float64 ndarray over ``buf`` (``array('d')`` is always 8 bytes)."""
    try:
        return _np.frombuffer(buf, dtype=_np.float64)
    except (ValueError, BufferError):  # pragma: no cover - odd buffers
        return _np.array(buf, dtype=_np.float64)


def csr_ndarrays(substrate):
    """``(offsets, targets)`` int64 views of a substrate's CSR arrays.

    Cached on the substrate (its arrays are immutable once built); both
    views share the underlying buffer — including the mmap pages of a
    bundle-adopted substrate, whose ``backing`` keeps the map alive.
    """
    if _np is None:
        raise RuntimeError("numpy is not available")
    cached = substrate.ndarray_views()
    if cached is None:
        cached = (_as_int64(substrate.offsets), _as_int64(substrate.targets))
        substrate.adopt_ndarray_views(cached)
    return cached


# ----------------------------------------------------------------------
# Batched relaxation sweeps (guided bound tables, shared frontiers)
# ----------------------------------------------------------------------


def _max_sweeps(width: int) -> int:
    """Sweep budget before declaring non-convergence.  Each sweep extends
    every shortest path by one hop, so the budget is a diameter bound; a
    graph deeper than this (a bare ring, say) falls back to the scalar
    Dijkstra rather than sweeping forever — the "high diameter" row of
    the fallback matrix."""
    return 64 + 2 * int(width ** 0.5)


def _relax_to_fixpoint(dist, offsets, targets, cost_rows, n, patches, max_sweeps):
    """Iterate ``dist[v] = min(dist[v], min_{u in row(v)} dist[u] + cost[v])``
    to its least fixpoint, all rows at once.

    ``dist`` is ``R x width`` (one row per seed set, possibly from
    different queries); ``cost_rows`` is ``R x n`` (each query carries its
    own per-element costs).  ``patches`` applies the overlay's extra
    edges — ``(prow, psrc, pdst, pcost)`` parallel arrays meaning "row
    ``prow`` may enter ``pdst`` from ``psrc`` at ``pcost``" — alongside
    the base CSR adjacency.  Returns ``(dist, converged)``.

    Each iteration is either a **dense sweep** (row gather +
    ``np.minimum.reduceat`` over every element, right when most of the
    matrix is in motion — e.g. the phase-2 pass, whose seeds are already
    near their fixpoint everywhere) or a **sparse frontier push** (relax
    only the out-edges of elements whose distance changed last iteration
    — the few-seeds phase-1 regime, where a dense sweep would redo the
    whole graph ``diameter`` times over).  The push direction uses the
    same CSR rows as the pull: summary-graph adjacency is symmetric
    (exploration is undirected), and the overlay patch generator emits
    both directions of every extra edge.  Either step applies the same
    monotone relaxation equation, so the least fixpoint — the value
    Dijkstra computes, see the module docstring — is reached bit-exactly
    regardless of which steps ran; only the iteration count differs.
    """
    np = _np
    n_rows, width = dist.shape
    n_edges = int(targets.shape[0])
    if n_edges:
        starts = offsets[:-1]
        empty = starts == offsets[1:]
        any_empty = bool(empty.any())
        if any_empty:
            # reduceat over only the non-empty rows: their starts are
            # strictly increasing and in-bounds, and because empty rows
            # contribute no positions, each surviving segment spans
            # exactly its own edges.  (Clipping a trailing empty row's
            # start to n_edges-1 instead would silently truncate the
            # last non-empty row's segment.)
            nonempty = ~empty
            ne_starts = starts[nonempty]
    if patches is not None:
        prow, psrc, pdst, pcost = patches
        pflat = prow * width + psrc
    flat = dist.reshape(-1)
    cflat = cost_rows.reshape(-1)
    # The frontier is a flat-index array (touched this iteration) plus a
    # mirror boolean for O(1) patch-source membership; iteration cost
    # scales with the frontier, never with R x width.
    infront = flat < _INF
    fidx = np.flatnonzero(infront)
    # A sparse push costs ~frontier_bits x avg_degree scattered relaxations
    # vs the dense sweep's R x E contiguous ones; the scatter's per-element
    # overhead is roughly an order of magnitude higher, hence the /8.
    dense_cutoff = max(1, (n_rows * max(n, 1)) // 8)
    for _ in range(max_sweeps):
        if fidx.size == 0:
            return dist, True
        if fidx.size >= dense_cutoff:
            new = dist.copy()
            if n_edges:
                if any_empty:
                    seg = np.full((n_rows, n), _INF)
                    seg[:, nonempty] = np.minimum.reduceat(
                        dist[:, targets], ne_starts, axis=1
                    )
                else:
                    seg = np.minimum.reduceat(dist[:, targets], starts, axis=1)
                np.minimum(dist[:, :n], seg + cost_rows, out=new[:, :n])
            if patches is not None:
                np.minimum.at(new, (prow, pdst), dist[prow, psrc] + pcost)
            infront = (new != dist).reshape(-1)
            fidx = np.flatnonzero(infront)
            dist = new
            flat = dist.reshape(-1)
            continue
        # Sparse push: candidates from the base rows of frontier sources
        # < n, plus every patch edge whose source is in the frontier.
        if patches is not None:
            psel = infront[pflat]
        infront[fidx] = False
        moved = []
        if n_edges:
            fu = fidx % width
            if width == n:
                # No overlay extras: flat dist and flat cost coincide and
                # every frontier source has a base CSR row.
                fidx_b = fidx
            else:
                base = fu < n
                if not base.all():
                    fu = fu[base]
                    fidx_b = fidx[base]
                else:
                    fidx_b = fidx
            lens = offsets[fu + 1] - offsets[fu]
            total = int(lens.sum())
            if total:
                within = np.arange(total) - np.repeat(
                    np.cumsum(lens) - lens, lens
                )
                pos = np.repeat(offsets[fu], lens) + within
                # flat destination = row_base + target element; cost row
                # base = r * n — both derived per-source, then repeated.
                row_base = fidx_b - fu
                ev = targets[pos]
                edst = np.repeat(row_base, lens) + ev
                if width == n:
                    cand = flat[np.repeat(fidx_b, lens)] + cflat[edst]
                else:
                    cand = flat[np.repeat(fidx_b, lens)] + cflat[
                        np.repeat(row_base // width * n, lens) + ev
                    ]
                improving = cand < flat[edst]
                if improving.any():
                    edst, cand = edst[improving], cand[improving]
                    np.minimum.at(flat, edst, cand)
                    moved.append(edst)
        if patches is not None and psel.any():
            ps, pd, pc = pflat[psel], prow[psel] * width + pdst[psel], pcost[psel]
            cand = flat[ps] + pc
            improving = cand < flat[pd]
            if improving.any():
                pd, cand = pd[improving], cand[improving]
                np.minimum.at(flat, pd, cand)
                moved.append(pd)
        if moved:
            # Sort+diff dedup: numpy's hash-based `unique` has ~200us of
            # per-call overhead on integer dtypes, dwarfing these arrays.
            touched = np.sort(
                moved[0] if len(moved) == 1 else np.concatenate(moved)
            )
            if touched.size > 1:
                keep = np.empty(touched.shape, dtype=bool)
                keep[0] = True
                np.not_equal(touched[1:], touched[:-1], out=keep[1:])
                touched = touched[keep]
            fidx = touched
            infront[fidx] = True
        else:
            fidx = fidx[:0]
    return dist, fidx.size == 0


def overlay_patch_arrays(view):
    """The overlay's extra adjacency as relaxation patch edges.

    ``view.rows`` holds the merged replacement rows: the full row of every
    overlay extra, and base rows extended with overlay edge ids (always
    ``>= n`` — `_build_substrate_view` only ever appends extras to base
    rows).  A patch edge ``(src, dst, cost)`` relaxes entry into ``dst``
    at ``cost == costs[dst]``; base-to-base adjacency stays with the CSR
    sweep.  Cached on the view (and the view is itself cached per overlay
    signature on the substrate).
    """
    cached = view.np_patches
    if cached is not False:
        return cached
    n = view.substrate.n
    costs = view.costs
    src: List[int] = []
    dst: List[int] = []
    pc: List[float] = []
    for v, row in view.rows.items():
        cost_v = costs[v]
        if v >= n:
            for u in row:
                src.append(u)
                dst.append(v)
                pc.append(cost_v)
        else:
            for u in row:
                if u >= n:
                    src.append(u)
                    dst.append(v)
                    pc.append(cost_v)
    if src:
        cached = (
            _np.array(src, dtype=_np.int64),
            _np.array(dst, dtype=_np.int64),
            _np.array(pc, dtype=_np.float64),
        )
    else:
        cached = None
    view.np_patches = cached
    return cached


def completion_bounds_batch(problems) -> List[Optional[List[List[float]]]]:
    """Guided completion-bound tables for a batch of queries, fused.

    ``problems`` is a sequence of ``(m, seed_costs, view)`` — exactly the
    inputs ``_completion_bounds`` takes, one per query; all views of one
    snapshot share a substrate and fuse into one relaxation matrix (the
    shared-frontier pass of ``EngineService.search_many``).  Returns one
    bounds table (list of m per-element lists, bit-identical to the
    scalar oracle) per problem, or ``None`` for problems the kernel could
    not converge within the sweep budget — the caller recomputes those
    with the scalar path.
    """
    results: List[Optional[List[List[float]]]] = [None] * len(problems)
    if _np is None:
        return results
    groups: Dict[int, List[int]] = {}
    for idx, (_, _, view) in enumerate(problems):
        groups.setdefault(id(view.substrate), []).append(idx)
    for idxs in groups.values():
        _bounds_group(problems, idxs, results)
    return results


def _bounds_group(problems, idxs, results) -> None:
    np = _np
    view0 = problems[idxs[0]][2]
    substrate = view0.substrate
    offsets, targets = csr_ndarrays(substrate)
    n = substrate.n
    width = max(problems[i][2].total for i in idxs)
    n_rows = sum(problems[i][0] for i in idxs)
    max_sweeps = _max_sweeps(width)

    dist = np.full((n_rows, width), _INF)
    cost_rows = np.empty((n_rows, n))
    row_start: Dict[int, int] = {}
    prows: List = []
    psrcs: List = []
    pdsts: List = []
    pcosts: List = []
    r = 0
    for i in idxs:
        m, seed_costs, view = problems[i]
        row_start[i] = r
        cost_rows[r : r + m] = _as_float64(view.costs)[:n]
        patch = overlay_patch_arrays(view)
        if patch is not None:
            src, dst, pc = patch
            rows = np.repeat(np.arange(r, r + m, dtype=np.int64), src.shape[0])
            prows.append(rows)
            psrcs.append(np.tile(src, m))
            pdsts.append(np.tile(dst, m))
            pcosts.append(np.tile(pc, m))
        for kw in range(m):
            row = dist[r + kw]
            for node, cost in seed_costs[kw].items():
                row[node] = cost
        r += m
    patches = None
    if prows:
        patches = (
            np.concatenate(prows),
            np.concatenate(psrcs),
            np.concatenate(pdsts),
            np.concatenate(pcosts),
        )

    dist1, ok = _relax_to_fixpoint(
        dist, offsets, targets, cost_rows, n, patches, max_sweeps
    )
    if not ok:
        _log_nonconvergence(width)
        return

    # Phase 2 seeds: S_i(v) = fold-left sum over j != i of dist_j(v), in
    # ascending j — replicated elementwise, NOT as sum-minus-self, which
    # is neither associativity-safe nor inf-safe in floating point.
    dist2 = np.empty_like(dist1)
    for i in idxs:
        m, _, view = problems[i]
        r0 = row_start[i]
        for kw in range(m):
            acc = None
            for j in range(m):
                if j == kw:
                    continue
                dj = dist1[r0 + j]
                acc = dj.copy() if acc is None else acc + dj
            # m == 1: the scalar oracle seeds every element at 0.0.
            dist2[r0 + kw] = np.zeros(width) if acc is None else acc

    dist2, ok = _relax_to_fixpoint(
        dist2, offsets, targets, cost_rows, n, patches, max_sweeps
    )
    if not ok:
        _log_nonconvergence(width)
        return

    for i in idxs:
        m, _, view = problems[i]
        r0 = row_start[i]
        total = view.total
        results[i] = [dist2[r0 + kw, :total].tolist() for kw in range(m)]


_nonconvergence_logged = False


def _log_nonconvergence(width: int) -> None:
    global _nonconvergence_logged
    if not _nonconvergence_logged:
        _nonconvergence_logged = True
        log.warning(
            "relaxation kernel hit the sweep budget on a %d-element graph "
            "(very high diameter); using the scalar Dijkstra for its bound "
            "tables", width,
        )


# ----------------------------------------------------------------------
# Combination enumeration (Algorithm 2 registrations)
# ----------------------------------------------------------------------


def iter_combinations(lists, w, cutoff):
    """Cheapest-sum-first index tuples across per-keyword cursor lists.

    ``lists[i]`` holds SoA cursor indices ascending in cost, ``w`` maps a
    cursor index to its cost, ``cutoff`` returns the caller's current
    k-th cost.  Yields ``(cost, combo)`` with ``combo`` one cursor index
    per keyword — the same values, in the same order, as the reference
    ``_best_combinations`` (same fold-left start sum, same chained
    successor arithmetic, same lexicographic tie-break: the constant
    singleton coordinates never influence a tuple comparison).

    Singleton dimensions are reduced out first: with one non-singleton
    list the frontier heap degenerates to an ascending scan of that list
    (successor costs chain along it exactly as the heap would chain
    them), which is the common ``m == 2`` registration.
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

    # >= 2 open dimensions: replay the reference frontier heap over full
    # m-length index vectors (an np.add.outer grid with argpartition
    # chunks was measured and rejected — see the module docstring: grid
    # arithmetic is not value-identical to the chained successor sums).
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
# The SoA exploration loop
# ----------------------------------------------------------------------


def explore_soa(seed_lists, m, view, bounds, candidates, k, dmax, max_cursors):
    """The reference exploration loop on structure-of-arrays cursors.

    ``seed_lists[i]`` holds ``(element, cost)`` origin pairs in canonical
    seeding order.  Cursors are one packed ``(element, keyword, parent,
    distance)`` tuple plus a parallel cost list, indexed by creation
    order; heap entries are ``(cost, index)`` two-tuples whose index is
    the exact tie-break the reference's ``(cost, created, Cursor)``
    triples encode.  Every counter increment, pruning decision (the
    completion bound is checked before a child is pushed and again when
    a cursor is popped, exactly as in the reference), offer and
    termination check mirrors ``explore_top_k``'s loop line for line —
    the test suite asserts the diagnostics match bit for bit.

    Returns ``(created, popped, pruned, max_queue, terminated_by)``;
    accepted subgraphs accumulate in ``candidates``.
    """
    substrate = view.substrate
    offsets = substrate.offsets
    targets = substrate.targets
    extra_rows = view.rows
    costs = view.costs_list
    if costs is None:
        costs = view.costs.tolist()
        view.costs_list = costs
    to_merged = view.to_merged

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

    states: Dict[int, List[List[int]]] = {}
    states_get = states.get
    # The adjacency-row memo lives on the view so repeated explorations
    # skip both the CSR slice and the per-iteration int boxing of
    # array('l') rows (base rows are boxed into tuples once).  Concurrent
    # searches share it safely: entries are pure functions of the element
    # id, so a racing double-compute just overwrites with an equal value.
    rows = view.row_memo
    if rows is None:
        rows = dict(extra_rows)
        view.row_memo = rows
    rows_get = rows.get
    # A cursor's (translated) path and its element set are fixed at
    # creation; registrations re-enumerate the same cursors many times,
    # so both are memoized by cursor index.  MatchingSubgraph copies the
    # path lists it is handed, so sharing them is safe.
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
            if to_merged is None:
                while probe >= 0:
                    cu = cursors[probe]
                    append(cu[0])
                    probe = cu[2]
            else:
                while probe >= 0:
                    cu = cursors[probe]
                    append(to_merged(cu[0]))
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
    n_found = len(candidates)
    dup_offers = 0

    # Net completion bounds: bounds[kw][e] - costs[e] folded once (the
    # exact subtraction the reference performs at every pop) and cached
    # on the view keyed by the bounds object's identity.
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
    budget = _INF if max_cursors is None else max_cursors
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

        if nets is not None:
            kw_nets = nets[kw]
            if cursor_cost + kw_nets[element] >= kth:
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

        if distance < dmax:
            row = rows_get(element)
            if row is None:
                row = tuple(targets[offsets[element] : offsets[element + 1]])
                rows[element] = row
            # One ancestor-set per expansion replaces the reference's
            # per-neighbor parent-chain walk — same membership test.  A
            # child's path extends its parent's by one element, and a
            # child only exists because its parent expanded (and cached
            # its set), so each set is one C-level union, not a walk.
            if par >= 0:
                ancestors = anc_cache[par] | {element}
            else:
                ancestors = {element}
            anc_cache[ci] = ancestors
            next_distance = distance + 1
            for neighbor in row:
                if neighbor in ancestors:
                    continue
                neighbor_state = states_get(neighbor)
                if neighbor_state is not None and len(neighbor_state[kw]) >= k:
                    pruned += 1
                    continue
                child_cost = cursor_cost + costs[neighbor]
                # Push-time bound, the reference's check on the same
                # folded `bounds - costs` value the pop-time check reads.
                if kw_nets is not None and child_cost + kw_nets[neighbor] >= kth:
                    pruned += 1
                    continue
                cur_append((neighbor, kw, ci, next_distance))
                cost_append(child_cost)
                hpush(heap, (child_cost, created))
                created += 1

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
                connecting = element if to_merged is None else to_merged(element)
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
                            from_parts(connecting, paths, key, subgraph_cost),
                        )
                        n_found = len(srt)
                        kth = srt[k - 1][0] if n_found >= k else _INF
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
                connecting = element if to_merged is None else to_merged(element)
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
                            from_parts(connecting, paths, key, subgraph_cost),
                        )
                        n_found = len(srt)
                        kth = srt[k - 1][0] if n_found >= k else _INF
                    else:
                        dup_offers += 1
                    distinct_sets.add(key)
                    if len(distinct_sets) >= k:
                        break

        lowest_remaining = heap[0][0] if heap else _INF
        if kth < lowest_remaining:
            terminated_by = "threshold"
            break

        if created >= budget:
            terminated_by = "budget"
            break

    if dup_offers:
        # Duplicate offers rejected by the inline pre-check; the counter
        # is flushed once so the final diagnostics match the reference.
        candidates.offered += dup_offers

    return created, popped, pruned, max_queue, terminated_by
