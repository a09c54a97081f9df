"""Property: the seed threshold is an upper bound, checked and not trusted.

Guided exploration starts Algorithm 2 from a threshold read off the
per-keyword distance tables (``exploration.seed_threshold``): the k-th
cheapest of *witness* subgraphs the tables already describe.  Four things
have to hold for that to be a speed-up and nothing else:

* every witness is a subgraph Algorithm 1 can assemble, at the cost the
  loop would compute for it — so the threshold really bounds the final
  k-th cost from above (checked against the unbounded run and by
  rebuilding every witness from the graph);
* a threshold that is wrong anyway is found out: the run is repeated
  without it, once, and the answer is the unseeded one — while a run of
  the reference loop that stopped on its cursor budget is no verdict and
  is returned as it is;
* the threshold is a function of the tables, ``k`` and ``dmax`` alone:
  threads deriving it together agree;
* production and the literal Algorithm 1/2 apply it alike
  (``test_vectorized_identity.py`` compares all six diagnostics; here the
  answers with and without the seed are compared).
"""

import sys
import threading

import pytest
from hypothesis import given, settings, strategies as st

from reference_exploration import explore_top_k as reference_explore_top_k
from test_vectorized_identity import (
    _exploration_signature,
    _random_case,
    exploration_cases,
)

from repro.core import exploration
from repro.core.engine import KeywordSearchEngine
from repro.core.exploration import explore_top_k
from repro.core.seed import seed_threshold, seed_witnesses
from repro.datasets import running_example_graph
from repro.rdf.terms import URI
from repro.summary.augmentation import AugmentedSummaryGraph
from repro.summary.elements import SummaryEdgeKind
from repro.summary.substrate import _build_substrate_view, _completion_bounds
from repro.summary.summary_graph import SummaryGraph

INF = float("inf")


def _answer(result):
    """What a search returns of an exploration: the subgraphs, exactly."""
    return [
        (sg.connecting_element, sg.paths, sg.elements, sg.cost)
        for sg in result.subgraphs
    ]


def _tables(augmented, costs):
    """The inputs ``explore_top_k`` derives a threshold from."""
    view = _build_substrate_view(augmented, costs)
    seed_costs = [
        {view.ids[key]: view.costs[view.ids[key]] for key in elements}
        for elements in augmented.sorted_keyword_elements()
        if elements
    ]
    _, dists = _completion_bounds(
        len(seed_costs), seed_costs, view.rows.__getitem__, view.costs, view.total
    )
    return view, seed_costs, dists


# ----------------------------------------------------------------------
# Witnesses are real subgraphs; the threshold bounds the k-th cost
# ----------------------------------------------------------------------


@given(exploration_cases(), st.sampled_from([2, 4, 6]))
@settings(max_examples=150, deadline=None)
def test_witnesses_are_subgraphs_the_loop_can_assemble(case, dmax):
    augmented, costs, k = _random_case(case)
    view, seed_costs, dists = _tables(augmented, costs)
    row_of = view.rows.__getitem__
    m = len(seed_costs)
    witnesses = seed_witnesses(m, dists, seed_costs, row_of, view.costs, k, dmax)

    assert len(witnesses) <= k
    assert [w[0] for w in witnesses] == sorted(w[0] for w in witnesses)
    element_sets = [frozenset().union(*paths) for _, _, paths in witnesses]
    assert len(set(element_sets)) == len(witnesses), "two witnesses, one subgraph"

    for cost, connecting, paths in witnesses:
        assert len(paths) == m
        total = 0
        for keyword, path in enumerate(paths):
            assert path[0] in seed_costs[keyword] and path[-1] == connecting
            assert len(set(path)) == len(path), "a cursor never revisits"
            assert len(path) - 1 <= dmax
            chained = view.costs[path[0]]
            for here, there in zip(path, path[1:]):
                assert there in row_of(here), "not an edge of the graph"
                chained = chained + view.costs[there]
            total = total + chained
        # The float the loop computes: chained along each path from its
        # keyword element, folded over the keywords in order.
        assert cost == total

    threshold = seed_threshold(m, dists, seed_costs, row_of, view.costs, k, dmax)
    if len(witnesses) < k:
        assert threshold == INF
        return
    assert witnesses[-1][0] < threshold <= witnesses[-1][0] * (1 + 2e-9)

    plain = reference_explore_top_k(augmented, costs, k=k, dmax=dmax, guided=False)
    if len(plain.subgraphs) == k:
        assert threshold > plain.subgraphs[-1].cost


@given(exploration_cases(), st.sampled_from([2, 4, 6]))
@settings(max_examples=150, deadline=None)
def test_seeded_answer_is_the_unseeded_answer(case, dmax):
    """Production (seeded) against the bounds alone (the reference with
    its seed forced to +inf) and against no bounds at all."""
    augmented, costs, k = _random_case(case)
    seeded = explore_top_k(augmented, costs, k=k, dmax=dmax)
    bounded = reference_explore_top_k(
        augmented, costs, k=k, dmax=dmax, threshold=INF
    )
    plain = reference_explore_top_k(augmented, costs, k=k, dmax=dmax, guided=False)
    assert _answer(seeded) == _answer(bounded) == _answer(plain)
    assert bounded.seed_threshold == plain.seed_threshold == INF
    assert seeded.cursors_created <= bounded.cursors_created or seeded.seed_fallback


# ----------------------------------------------------------------------
# A wrong threshold is found out; a budget stop is not a verdict
# ----------------------------------------------------------------------


def _too_low(plain):
    """A threshold no run can end under: below the cheapest subgraph."""
    return plain.subgraphs[0].cost / 2 if plain.subgraphs else 1e-6


def _counting_loop(monkeypatch):
    """Count the runs of the production loop."""
    runs = []
    loop = exploration.explore_soa

    def counted(*args):
        runs.append(args[7] if len(args) > 7 else INF)
        return loop(*args)

    monkeypatch.setattr(exploration, "explore_soa", counted)
    return runs


@given(exploration_cases())
@settings(max_examples=100, deadline=None)
def test_a_threshold_below_the_kth_cost_costs_one_rerun(case):
    augmented, costs, k = _random_case(case)
    unseeded = reference_explore_top_k(augmented, costs, k=k, dmax=6, threshold=INF)
    low = _too_low(unseeded)

    forced = reference_explore_top_k(augmented, costs, k=k, dmax=6, threshold=low)
    assert forced.seed_fallback and forced.seed_threshold == low
    # The rerun is the unseeded run: answer and all six diagnostics.
    assert _exploration_signature(forced) == _exploration_signature(unseeded)
    assert _answer(forced) == _answer(unseeded)

    with pytest.MonkeyPatch.context() as monkeypatch:
        monkeypatch.setattr(exploration, "seed_threshold", lambda *args: low)
        runs = _counting_loop(monkeypatch)
        production = explore_top_k(augmented, costs, k=k, dmax=6)
    assert runs == [low, INF], "exactly one fallback"
    assert production.seed_fallback and production.seed_threshold == low
    assert _exploration_signature(production) == _exploration_signature(unseeded)
    assert _answer(production) == _answer(unseeded)


def _star():
    """Keyword 0 on the hub, keyword 1 on one of six leaves, unit costs:
    one subgraph, cost 4 (``test_guided_equivalence.py`` walks through it)."""
    graph = SummaryGraph()
    hub = graph.add_class_vertex(URI("c:hub"), agg_count=1).key
    leaves = [
        graph.add_class_vertex(URI(f"c:leaf{i}"), agg_count=1).key for i in range(6)
    ]
    for i, leaf in enumerate(leaves):
        graph.add_edge(URI(f"e:{i}"), SummaryEdgeKind.RELATION, hub, leaf)
    costs = {el.key: 1.0 for el in list(graph.vertices) + list(graph.edges)}
    return AugmentedSummaryGraph(graph, [{hub}, {leaves[0]}], {}), costs


def test_a_budget_terminated_seeded_run_is_returned_as_is():
    """3.5 is below the star's only subgraph (4) and above every cursor
    that leads to it (cost + completion 3): the seeded run gets going,
    finds nothing, and must not be taken for refuted when the budget,
    not the seed, is what stopped it.  Only the reference loop has a
    cursor budget (the Section VI-C ablation's truncated run)."""
    augmented, costs = _star()

    stopped = reference_explore_top_k(
        augmented, costs, k=1, max_cursors=3, threshold=3.5
    )
    assert stopped.terminated_by == "budget" and not stopped.subgraphs
    assert not stopped.seed_fallback and stopped.seed_threshold == 3.5

    # The same wrong seed without a budget is a verdict, and is rerun.
    finished = reference_explore_top_k(augmented, costs, k=1, threshold=3.5)
    assert finished.seed_fallback
    assert [sg.cost for sg in finished.subgraphs] == [4.0]


def test_fewer_than_k_witnesses_leave_the_run_unseeded(monkeypatch):
    """13 elements and one binding cannot hold 50 subgraphs: no
    threshold, one run, no check to fail."""
    augmented, costs = _star()
    runs = _counting_loop(monkeypatch)
    result = explore_top_k(augmented, costs, k=50)
    assert result.seed_threshold == INF and not result.seed_fallback
    assert runs == [INF]
    assert 1 < len(result.subgraphs) < 50 and result.subgraphs[0].cost == 4.0


# ----------------------------------------------------------------------
# One float per (tables, k, dmax)
# ----------------------------------------------------------------------


def _plan_tables(engine):
    """The bound tables of every plan in the engine's plan LRU."""
    plans = engine.summary.exploration_substrate().plans.values()
    return [
        plan.view_memo[id(costs)][1].tables
        for plan in plans
        for costs in plan.cost_memo.values()
    ]


def test_threads_deriving_one_threshold_together_agree():
    """Eight searches race to build one plan that was just dropped:
    whoever derives its tables and threshold, all run from the same
    float, and the plan left behind keeps one value for the ``(k, dmax)``
    they share."""
    engine = KeywordSearchEngine(running_example_graph(), search_cache_size=0)
    expected = engine.search("cimiano 2006").exploration.seed_threshold
    assert expected < INF
    plans = engine.summary.exploration_substrate().plans
    assert len(plans) == 1

    threads = 8
    barrier = threading.Barrier(threads)
    seen, errors = [], []

    def search():
        try:
            barrier.wait(timeout=30)
            result = engine.search("cimiano 2006")
            seen.append((result.exploration.seed_threshold,
                         result.exploration.seed_fallback))
        except Exception as exc:  # surfaced below, with the thread gone
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(5):
            plans.clear()
            workers = [threading.Thread(target=search) for _ in range(threads)]
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join(timeout=60)
            assert not any(worker.is_alive() for worker in workers)
    finally:
        sys.setswitchinterval(interval)
    assert not errors, errors
    assert seen == [(expected, False)] * (5 * threads)
    assert len(plans) == 1
    (tables,) = _plan_tables(engine)
    assert dict(tables.thresholds) == {(engine.k, engine.dmax): expected}
    assert engine.exploration_stats() == {
        "seeded": 1 + 5 * threads, "seed_fallbacks": 0,
    }


def test_thresholds_kept_per_entry_are_bounded():
    engine = KeywordSearchEngine(running_example_graph(), search_cache_size=0)
    for k in range(1, 30):
        engine.search("cimiano 2006", k=k)
    (tables,) = _plan_tables(engine)
    assert len(tables.thresholds) == tables.MAX_THRESHOLDS < 29

