"""Algorithms 1 and 2, literally: the oracle of the exploration identity suites.

One :class:`Cursor` object per explored path, the path recovered by walking
parent cursors, the cycle check a walk of that chain, and every candidate
combination of a registration built by :func:`_best_combinations` and
offered through ``CandidateList.offer`` — the paper's pseudocode with the
completion bounds of Section VI-A applied at push and at pop, against the
k-th cost or the threshold the run was seeded with, whichever is lower.
This was ``explore_top_k``'s own loop (and ``repro.core.cursor``) until the
structure-of-arrays loop became the only one in ``src/``; it lives on here
because a second, plainer implementation is what "byte-identical" is
measured against: same subgraphs, same ranking among equal costs, same six
diagnostics (``test_vectorized_identity.py``, ``test_exploration.py``).

It interns its own id space from scratch (:func:`intern_view`: ids anchor
tie-breaking, so both sides must number elements alike, and the oracle
numbers them from the definition rather than from production's view) and
shares with production only the Dijkstra bound tables and the seed
threshold read off them.  It caches nothing.

It is also the only unbounded loop there is: ``guided=False`` runs it
without bounds and without a seed — the same answer, several times the
cursors.  That is what the bounds are checked against
(``test_guided_equivalence.py``, ``test_bounds_real_costs.py``) and the
plain column of the Section VI-C ablation
(``benchmarks/test_ablation_guarantee.py``); production has no such mode.

:func:`reference_loop` substitutes it at the one seam where the engine
reaches exploration, ``repro.core.engine``'s call of ``explore_top_k``.

The cursor ``c(n, k, p, d, w)`` of Algorithm 1
----------------------------------------------

A cursor represents one distinct path from a keyword element to the element
it currently visits.  The path itself is recovered by recursive traversal of
parent cursors, exactly as the paper describes; cursors are immutable, so a
parent can be shared by many children without copying.

Cursors created through :meth:`Cursor.origin_cursor` / :meth:`Cursor.expand`
additionally carry ``path_set`` — a frozenset of the elements on the path —
giving :meth:`visits` an O(1) membership check.  Directly constructed
cursors may omit it (``path_set=None``) and :meth:`visits` falls back to
the parent-chain walk (bounded by dmax).
"""

from contextlib import contextmanager
from functools import partial
import heapq
from typing import (
    Callable,
    Dict,
    FrozenSet,
    Hashable,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
)

from repro.core import engine as engine_module
from repro.core.exploration import DEFAULT_DMAX, ExplorationResult
from repro.core.seed import seed_threshold
from repro.core.subgraph import MatchingSubgraph
from repro.core.topk import CandidateList
from repro.summary.substrate import _completion_bounds

_INF = float("inf")


class Cursor:
    """One explored path, addressed by its tip.

    Attributes
    ----------
    element:
        ``n`` — the graph element (vertex or edge key) just visited.
    keyword:
        The index *i* of the keyword this path originates from.
    origin:
        ``k`` — the keyword element the path started at.
    parent:
        ``p`` — the cursor this one was expanded from (None at the origin).
    distance:
        ``d`` — number of elements on the path after the origin.
    cost:
        ``w`` — accumulated path cost, including the origin's own cost.
    path_set:
        The set of elements on the path (optional; enables O(1) cycle
        checks).
    """

    __slots__ = ("element", "keyword", "origin", "parent", "distance", "cost", "path_set")

    def __init__(
        self,
        element: Hashable,
        keyword: int,
        origin: Hashable,
        parent: Optional["Cursor"],
        distance: int,
        cost: float,
        path_set: Optional[FrozenSet[Hashable]] = None,
    ):
        object.__setattr__(self, "element", element)
        object.__setattr__(self, "keyword", keyword)
        object.__setattr__(self, "origin", origin)
        object.__setattr__(self, "parent", parent)
        object.__setattr__(self, "distance", distance)
        object.__setattr__(self, "cost", cost)
        object.__setattr__(self, "path_set", path_set)

    def __setattr__(self, name, value):  # pragma: no cover - guard
        raise AttributeError("Cursor is immutable")

    @classmethod
    def origin_cursor(cls, element: Hashable, keyword: int, cost: float) -> "Cursor":
        """The initial cursor placed on a keyword element (Alg 1 line 4)."""
        return cls(element, keyword, element, None, 0, cost, frozenset((element,)))

    def expand(self, neighbor: Hashable, neighbor_cost: float) -> "Cursor":
        """A child cursor visiting ``neighbor`` (Alg 1 line 20)."""
        path_set = self.path_set
        return Cursor(
            neighbor,
            self.keyword,
            self.origin,
            self,
            self.distance + 1,
            self.cost + neighbor_cost,
            None if path_set is None else path_set | {neighbor},
        )

    def visits(self, element: Hashable) -> bool:
        """True if ``element`` lies on this cursor's path (cycle check,
        Alg 1 line 17).  One set lookup when ``path_set`` is carried;
        otherwise a walk of the parent chain (paths are short, ≤ dmax)."""
        path_set = self.path_set
        if path_set is not None:
            return element in path_set
        cursor: Optional[Cursor] = self
        while cursor is not None:
            if cursor.element == element:
                return True
            cursor = cursor.parent
        return False

    @property
    def parent_element(self) -> Optional[Hashable]:
        """The element of the parent cursor, ``(c.p).n`` (Alg 1 line 13)."""
        return self.parent.element if self.parent is not None else None

    def path(self) -> List[Hashable]:
        """The path from the origin to the current element."""
        out: List[Hashable] = []
        cursor: Optional[Cursor] = self
        while cursor is not None:
            out.append(cursor.element)
            cursor = cursor.parent
        out.reverse()
        return out

    def path_elements(self) -> FrozenSet[Hashable]:
        """The set of elements on the path."""
        path_set = self.path_set
        if path_set is not None:
            return path_set
        return frozenset(self.path())

    def __len__(self) -> int:
        return self.distance + 1

    def __repr__(self):
        return (
            f"Cursor(element={self.element!r}, keyword={self.keyword}, "
            f"d={self.distance}, w={self.cost:.3f})"
        )


def subgraph_from_cursors(
    connecting_element: Hashable, cursors: Sequence[Cursor]
) -> MatchingSubgraph:
    """Merge one cursor path per keyword at a connecting element."""
    return MatchingSubgraph(
        connecting_element,
        [c.path() for c in cursors],
        sum(c.cost for c in cursors),
    )


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


class InternedView:
    """The id space of an augmented graph, interned from scratch: element
    ``i`` is ``keys[i]``, ``rows[i]`` its neighbours' ids (ascending) and
    ``costs[i]`` its cost read through the cost mapping."""

    def __init__(self, keys, rows, costs):
        self.keys = keys
        self.ids = {key: i for i, key in enumerate(keys)}
        self.rows = rows
        self.costs = costs


def intern_view(augmented, element_costs) -> InternedView:
    """Number every element of ``augmented.graph`` by its rank in one
    stable sort by repr of the base graph's vertices and edges followed by
    the overlay's, so base elements come first among equal reprs."""
    graph = augmented.graph
    base = getattr(graph, "base", graph)
    keys = [vertex.key for vertex in base.vertices] + [edge.key for edge in base.edges]
    if base is not graph:
        keys += [vertex.key for vertex in graph.added_vertices]
        keys += [edge.key for edge in graph.added_edges]
    keys.sort(key=repr)
    ids = {key: i for i, key in enumerate(keys)}
    rows = [sorted(ids[nb] for nb in graph.neighbors(key)) for key in keys]
    return InternedView(keys, rows, [element_costs[key] for key in keys])


def explore_top_k(
    augmented,
    element_costs,
    k: int = 10,
    dmax: int = DEFAULT_DMAX,
    max_cursors: Optional[int] = None,
    guided: bool = True,
    threshold: Optional[float] = None,
) -> ExplorationResult:
    """``repro.core.exploration.explore_top_k`` on :class:`Cursor` objects,
    plus ``guided=False``: no bound tables, no seed, the unbounded loop.

    ``threshold`` is the seed Algorithm 2 starts from.  ``None`` derives
    it as production does (:func:`seed_threshold` over the same tables —
    the seed is an input of the algorithm, like the bounds, not part of
    the loop under test); a float forces one, which is how the tests hand
    the loop a threshold that is wrong.  Either way the seed is checked
    as in production: a run it did not survive is repeated without it.
    """
    ordered_sets = [ks for ks in augmented.sorted_keyword_elements() if ks]
    m = len(ordered_sets)
    if m == 0:
        return ExplorationResult([], 0, 0, 0, 0, "no-keywords", 0)

    view = intern_view(augmented, element_costs)
    costs = view.costs
    row_of = view.rows.__getitem__

    seeds: List[List[Tuple[int, float]]] = []
    for elements in ordered_sets:
        pairs = []
        for key in elements:
            element = view.ids.get(key)
            if element is None:
                raise KeyError(f"keyword element {key!r} not in augmented graph")
            pairs.append((element, costs[element]))
        seeds.append(pairs)

    bounds = None
    if not guided:
        threshold = _INF
    else:
        seed_costs = [dict(pairs) for pairs in seeds]
        bounds, dists = _completion_bounds(m, seed_costs, row_of, costs, len(costs))
        if threshold is None:
            threshold = seed_threshold(m, dists, seed_costs, row_of, costs, k, dmax)

    result = _explore(view, seeds, bounds, k, dmax, max_cursors, threshold)
    refuted = (
        threshold != _INF
        and result.terminated_by != "budget"
        and (len(result.subgraphs) < k or result.subgraphs[-1].cost >= threshold)
    )
    if refuted:
        result = _explore(view, seeds, bounds, k, dmax, max_cursors, _INF)
    result.seed_threshold = threshold
    result.seed_fallback = refuted
    return result


def _explore(view, seeds, bounds, k, dmax, max_cursors, threshold) -> ExplorationResult:
    """One run of Algorithms 1 and 2; the bound checks compare against
    ``min(k-th cost, threshold)``."""
    m = len(seeds)
    costs = view.costs
    row_of = view.rows.__getitem__
    candidates = CandidateList(k)

    heap: List[Tuple[float, int, Cursor]] = []
    created = 0
    for i, pairs in enumerate(seeds):
        for element, cost in pairs:
            created += 1
            heap.append((cost, created, Cursor.origin_cursor(element, i, cost)))
    heapq.heapify(heap)

    # Per-element registration state: ``states[element][i]`` holds the
    # cursors that reached the element from keyword i in ascending cost
    # order (pop order guarantees this), capped at k.
    states: Dict[int, List[List[Cursor]]] = {}
    kth_cost = candidates.kth_cost

    popped = 0
    pruned = 0
    max_queue = 0
    terminated_by = "exhausted"

    while heap:
        max_queue = max(max_queue, len(heap))
        _, _, cursor = heapq.heappop(heap)
        popped += 1
        element = cursor.element
        if cursor.distance > dmax:
            continue
        kw = cursor.keyword

        # Pop-time bound.  The raw bound enters `element` once more; the
        # cursor's cost already covers it, hence the subtraction.
        if bounds is not None:
            completion = bounds[kw][element] - costs[element]
            if cursor.cost + completion >= min(kth_cost(), threshold):
                pruned += 1
                continue

        state = states.setdefault(element, [[] for _ in range(m)])
        bucket = state[kw]
        if len(bucket) >= k:
            pruned += 1
            continue
        bucket.append(cursor)

        # Alg 1 lines 13-22: expand to every neighbor not on the path.
        if cursor.distance < dmax:
            for neighbor in row_of(element):
                if cursor.visits(neighbor):
                    continue
                neighbor_state = states.get(neighbor)
                if neighbor_state is not None and len(neighbor_state[kw]) >= k:
                    pruned += 1
                    continue
                child = cursor.expand(neighbor, costs[neighbor])
                # Push-time bound: the pop-time expression, evaluated
                # before the cursor counts as created.
                if bounds is not None:
                    completion = bounds[kw][neighbor] - costs[neighbor]
                    if child.cost + completion >= min(kth_cost(), threshold):
                        pruned += 1
                        continue
                created += 1
                heapq.heappush(heap, (child.cost, created, child))

        # Algorithm 2: the candidates this registration enables, best
        # first, until the k-th cost is reached or k distinct element
        # sets were produced here.
        if all(state):
            other_lists = [state[i] if i != kw else [cursor] for i in range(m)]
            distinct_sets = set()
            for combo_cost, combo in _best_combinations(other_lists, kth_cost):
                if len(candidates) >= k and combo_cost >= kth_cost():
                    break
                merged = subgraph_from_cursors(element, combo)
                candidates.offer(merged)
                distinct_sets.add(merged.canonical_key)
                if len(distinct_sets) >= k:
                    break

        lowest_remaining = heap[0][0] if heap else _INF
        if candidates.should_terminate(lowest_remaining):
            terminated_by = "threshold"
            break

        if max_cursors is not None and created >= max_cursors:
            terminated_by = "budget"
            break

    return ExplorationResult(
        subgraphs=[sg.translated(view.keys.__getitem__) for sg in candidates.best()],
        cursors_created=created,
        cursors_popped=popped,
        cursors_pruned=pruned,
        candidates_offered=candidates.offered,
        terminated_by=terminated_by,
        max_queue_size=max_queue,
    )


@contextmanager
def reference_loop(guided: bool = True):
    """Every ``engine.search`` inside the block explores with the loop
    above instead of the production one; ``guided=False`` runs it
    unbounded and unseeded (the Section VI-C ablation's plain column)."""
    production = engine_module.explore_top_k
    engine_module.explore_top_k = partial(explore_top_k, guided=guided)
    try:
        yield
    finally:
        engine_module.explore_top_k = production
