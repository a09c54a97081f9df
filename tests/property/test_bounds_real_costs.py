"""Bounded == unbounded exploration on the real cost models.

``test_guided_equivalence.py`` draws element costs from exact binary
fractions, so every path sum there is exact and a bound can only tie or
lose cleanly.  The shipped cost models (C3's popularity / matching score,
PageRank) produce costs whose sums round: the bound tables add them in
Dijkstra order, a cursor adds them along its path, and the two can differ
in the last ulp.  This suite therefore re-checks the identity where it is
served: every query of the DBLP, LUBM and TAP workloads, on both cost
models the workloads are scored with, at k = 1 / 10 / 50 and dmax =
2 / 4 / 10, on a loaded bundle (the configuration that is served), before
and after an add/remove batch.  Ranked query signatures and costs — and
under them the explored subgraphs: elements, costs, paths, connecting
elements, order — must be *equal*, not approximately.  Should a rounding
tie ever break this, the comparison in the prune is what needs a margin,
not this test.

The loop as served also starts from a seed threshold read off the same
tables (``exploration.seed_threshold``), which is a second way to be
wrong by an ulp — a witness's table sum against the loop's chained sum —
so there are three legs: seeded == bounded-unseeded == unbounded (the
oracle's loop, ``tests/reference_exploration.py`` at ``guided=False``), and
the seeded engine's fallback counter stays 0 throughout (a refuted seed is
rerun without it, so equal answers alone would not show one).
"""

from contextlib import contextmanager, nullcontext

import pytest
from reference_exploration import reference_loop

from repro.core import exploration
from repro.core.engine import KeywordSearchEngine
from repro.datasets import (
    DblpConfig,
    LubmConfig,
    TapConfig,
    dblp_triples,
    iter_lubm_triples,
    tap_triples,
)
from repro.datasets.workloads import (
    dblp_effectiveness_workload,
    dblp_performance_queries,
    lubm_effectiveness_workload,
    tap_effectiveness_workload,
)
from repro.storage import build_bundle_streaming

#: name -> (base triples, a larger draw of the same generator the add
#: batch is taken from, workload queries).
DATASETS = {
    "dblp": (
        lambda: dblp_triples(DblpConfig(publications=300)),
        lambda: dblp_triples(DblpConfig(publications=330)),
        lambda: dblp_effectiveness_workload() + dblp_performance_queries(),
    ),
    "lubm": (
        lambda: iter_lubm_triples(LubmConfig(universities=1)),
        lambda: iter_lubm_triples(LubmConfig(universities=1, seed=51)),
        lubm_effectiveness_workload,
    ),
    "tap": (
        lambda: tap_triples(TapConfig(instances_per_class=4)),
        lambda: tap_triples(TapConfig(instances_per_class=5)),
        tap_effectiveness_workload,
    ),
}


@pytest.fixture(scope="module", params=sorted(DATASETS))
def corpus(request, tmp_path_factory):
    base, larger, workload = DATASETS[request.param]
    triples = list(dict.fromkeys(base()))
    known = set(triples)
    adds = [t for t in dict.fromkeys(larger()) if t not in known][:150]
    removes = triples[::41]
    assert adds and removes
    path = tmp_path_factory.mktemp(request.param) / "corpus.reprobundle"
    build_bundle_streaming(iter(triples), path)
    return str(path), adds, removes, [q.keywords for q in workload()]


@contextmanager
def _unseeded():
    """Bounded, not seeded: every threshold derived inside the block is
    +inf.  Thresholds are cached beside the tables they are read off, so
    an engine searched in here is never searched outside it."""
    derive = exploration.seed_threshold
    exploration.seed_threshold = lambda *args: float("inf")
    try:
        yield
    finally:
        exploration.seed_threshold = derive


def _answer(engine, keywords, k, dmax, guided):
    """Ranked queries, and under them the subgraphs exactly as explored:
    connecting element, one path per keyword, element set, cost — in
    order.  ``guided=False`` searches through the oracle's unbounded loop."""
    with nullcontext() if guided else reference_loop(guided=False):
        result = engine.search(keywords, k=k, dmax=dmax)
    explored = result.exploration
    return (
        [(c.signature, c.cost) for c in result],
        [
            (sg.connecting_element, sg.paths, sg.elements, sg.cost)
            for sg in (explored.subgraphs if explored is not None else ())
        ],
    )


def _assert_bounds_and_seed_change_nothing(seeded, bounded, queries):
    for keywords in queries:
        for k in (1, 10, 50):
            for dmax in (2, 4, 10):
                unbounded = _answer(seeded, keywords, k, dmax, False)
                assert _answer(seeded, keywords, k, dmax, True) == unbounded, (
                    "seeded", keywords, k, dmax,
                )
                with _unseeded():
                    got = _answer(bounded, keywords, k, dmax, True)
                assert got == unbounded, ("bounded, unseeded", keywords, k, dmax)
    # Equal answers could hide a refuted seed (it is rerun without): the
    # counter must not have moved.
    explored = seeded.exploration_stats()
    assert explored["seeded"] > 0 and explored["seed_fallbacks"] == 0, explored
    assert bounded.exploration_stats() == {"seeded": 0, "seed_fallbacks": 0}


@pytest.mark.parametrize("cost_model", ["c3", "pagerank"])
def test_bounded_equals_unbounded(corpus, cost_model):
    """Three legs per query x k x dmax: the loop as served (bounds, seeded
    from the connectivity tables), the bounds alone (second engine, its
    seeds forced to +inf), and the unbounded oracle."""
    path, adds, removes, queries = corpus
    seeded, bounded = (
        KeywordSearchEngine.load(path, cost_model=cost_model, attach_wal=False)
        for _ in range(2)
    )
    _assert_bounds_and_seed_change_nothing(seeded, bounded, queries)
    for engine in (seeded, bounded):
        engine.add_triples(adds)
        engine.remove_triples(removes)
    _assert_bounds_and_seed_change_nothing(seeded, bounded, queries)
