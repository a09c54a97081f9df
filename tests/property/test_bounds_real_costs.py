"""Bounded == unbounded exploration on the real cost models.

``test_guided_equivalence.py`` draws element costs from exact binary
fractions, so every path sum there is exact and a bound can only tie or
lose cleanly.  The shipped cost models (C3's popularity / matching score,
PageRank) produce costs whose sums round: the bound tables add them in
Dijkstra order, a cursor adds them along its path, and the two can differ
in the last ulp.  This suite therefore re-checks the identity where it is
served: every query of the DBLP, LUBM and TAP workloads, on both cost
models the workloads are scored with, at k = 1 / 10 / 50, on the memory
and the mmap tier of one built bundle, before and after an add/remove
batch.  Ranked query signatures and costs must be *equal* — not
approximately.  Should a rounding tie ever break this, the comparison in
the prune is what needs a margin, not this test.
"""

import pytest

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


def _ranking(engine, keywords, k, guided):
    engine.guided = guided
    return [(c.signature, c.cost) for c in engine.search(keywords, k=k)]


def _assert_bounds_change_nothing(engine, queries):
    for keywords in queries:
        for k in (1, 10, 50):
            assert _ranking(engine, keywords, k, True) == _ranking(
                engine, keywords, k, False
            ), (keywords, k)


@pytest.mark.parametrize("index_tier", ["memory", "mmap"])
@pytest.mark.parametrize("cost_model", ["c3", "pagerank"])
def test_bounded_equals_unbounded(corpus, cost_model, index_tier):
    path, adds, removes, queries = corpus
    engine = KeywordSearchEngine.load(
        path, cost_model=cost_model, index_tier=index_tier, attach_wal=False
    )
    _assert_bounds_change_nothing(engine, queries)
    engine.add_triples(adds)
    engine.remove_triples(removes)
    _assert_bounds_change_nothing(engine, queries)
