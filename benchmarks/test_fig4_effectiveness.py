"""Fig. 4 reproduction: MRR of the scoring functions C1/C2/C3 on DBLP
(30 queries) and TAP (9 queries).

Paper shape to reproduce (Section VII-A):

* C2's MRR is at least as high as C1's overall — popularity focuses the
  exploration when many alternative substructures exist;
* C3 is superior in all cases — the matching score resolves the ambiguity
  the keyword-to-element mapping introduces;
* some queries score well even under plain path length (low ambiguity).
"""

import pytest

from repro.core.engine import KeywordSearchEngine
from repro.datasets import (
    dblp_effectiveness_workload,
    tap_effectiveness_workload,
)
from repro.quality import intent_reciprocal_rank, mean_of

COST_MODELS = ("c1", "c2", "c3")


def reciprocal_ranks(engine, workload):
    """Each workload entry's RR over the engine's top 10, by qid."""
    return {
        entry.qid: intent_reciprocal_rank(
            engine.search(entry.keywords, k=10).queries, entry.intent
        )
        for entry in workload
    }


def _engines(graph):
    base = KeywordSearchEngine(graph, cost_model="c3", k=10)
    return {
        name: KeywordSearchEngine(
            graph,
            cost_model=name,
            k=10,
            summary=base.summary,
            keyword_index=base.keyword_index,
        )
        for name in COST_MODELS
    }


@pytest.fixture(scope="module")
def dblp_engines(dblp_effectiveness_graph):
    return _engines(dblp_effectiveness_graph)


@pytest.fixture(scope="module")
def tap_engines(tap_graph):
    return _engines(tap_graph)


@pytest.mark.parametrize("cost_model", COST_MODELS)
def test_fig4_dblp_mrr(benchmark, dblp_engines, cost_model, report):
    workload = dblp_effectiveness_workload()
    engine = dblp_engines[cost_model]

    ranks = benchmark.pedantic(
        lambda: reciprocal_ranks(engine, workload), rounds=1, iterations=1
    )

    rep = report("fig4_effectiveness")
    rep.line(f"DBLP MRR with {cost_model.upper()}: {mean_of(ranks.values()):.3f}")
    if cost_model == COST_MODELS[-1]:
        _emit_per_query_table(report, dblp_engines, workload, "DBLP")


@pytest.mark.parametrize("cost_model", COST_MODELS)
def test_fig4_tap_mrr(benchmark, tap_engines, cost_model, report):
    workload = tap_effectiveness_workload()
    engine = tap_engines[cost_model]
    ranks = benchmark.pedantic(
        lambda: reciprocal_ranks(engine, workload), rounds=1, iterations=1
    )
    report("fig4_effectiveness").line(
        f"TAP MRR with {cost_model.upper()}: {mean_of(ranks.values()):.3f}"
    )


def test_fig4_shape_holds(benchmark, dblp_engines, report):
    """The qualitative Fig. 4 claims, asserted."""
    workload = dblp_effectiveness_workload()
    ranks = {
        name: reciprocal_ranks(engine, workload)
        for name, engine in dblp_engines.items()
    }
    mrr = {name: mean_of(by_qid.values()) for name, by_qid in ranks.items()}
    assert mrr["c2"] >= mrr["c1"]
    assert mrr["c3"] >= mrr["c2"]
    for entry in workload:
        assert ranks["c3"][entry.qid] >= ranks["c2"][entry.qid] - 1e-9

    rep = report("fig4_effectiveness")
    rep.line()
    rep.line(
        "shape check: MRR(C1) <= MRR(C2) <= MRR(C3) and C3 best per query — OK"
    )
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)


def _emit_per_query_table(report, engines, workload, dataset):
    ranks = {
        name: reciprocal_ranks(engine, workload)
        for name, engine in engines.items()
    }
    rep = report("fig4_effectiveness")
    rep.line()
    rep.line(f"Per-query reciprocal rank on {dataset} (paper Fig. 4):")
    rows = [
        (
            entry.qid,
            " ".join(entry.keywords),
            f"{ranks['c1'][entry.qid]:.2f}",
            f"{ranks['c2'][entry.qid]:.2f}",
            f"{ranks['c3'][entry.qid]:.2f}",
        )
        for entry in workload
    ]
    rep.table(("query", "keywords", "C1", "C2", "C3"), rows)
