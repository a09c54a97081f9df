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
from repro.eval.effectiveness import evaluate_effectiveness

COST_MODELS = ("c1", "c2", "c3")


def _bundle_engines(path):
    """One engine per cost model, all serving the same loaded bundle."""
    return {
        name: KeywordSearchEngine.load(
            path, attach_wal=False, cost_model=name, k=10
        )
        for name in COST_MODELS
    }


def _fresh_engines(graph):
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
def dblp_engines(request, eval_bundle_config):
    if eval_bundle_config and eval_bundle_config[1] == "dblp":
        return _bundle_engines(eval_bundle_config[0])
    return _fresh_engines(request.getfixturevalue("dblp_effectiveness_graph"))


@pytest.fixture(scope="module")
def tap_engines(request, eval_bundle_config):
    if eval_bundle_config and eval_bundle_config[1] == "tap":
        return _bundle_engines(eval_bundle_config[0])
    return _fresh_engines(request.getfixturevalue("tap_graph"))


@pytest.mark.parametrize("cost_model", COST_MODELS)
def test_fig4_dblp_mrr(benchmark, dblp_engines, cost_model, report):
    workload = dblp_effectiveness_workload()
    engine = dblp_engines[cost_model]

    result = benchmark.pedantic(
        lambda: evaluate_effectiveness(engine, workload, k=10),
        rounds=1,
        iterations=1,
    )

    rep = report("fig4_effectiveness")
    rep.line(f"DBLP MRR with {cost_model.upper()}: {result.mrr:.3f}")
    if cost_model == COST_MODELS[-1]:
        _emit_per_query_table(report, dblp_engines, workload, "DBLP")


@pytest.mark.parametrize("cost_model", COST_MODELS)
def test_fig4_tap_mrr(benchmark, tap_engines, cost_model, report):
    workload = tap_effectiveness_workload()
    engine = tap_engines[cost_model]
    result = benchmark.pedantic(
        lambda: evaluate_effectiveness(engine, workload, k=10),
        rounds=1,
        iterations=1,
    )
    report("fig4_effectiveness").line(
        f"TAP MRR with {cost_model.upper()}: {result.mrr:.3f}"
    )


def test_fig4_shape_holds(benchmark, dblp_engines, report):
    """The qualitative Fig. 4 claims, asserted."""
    workload = dblp_effectiveness_workload()
    reports = {
        name: evaluate_effectiveness(engine, workload, k=10)
        for name, engine in dblp_engines.items()
    }
    assert reports["c2"].mrr >= reports["c1"].mrr
    assert reports["c3"].mrr >= reports["c2"].mrr
    for entry in workload:
        assert reports["c3"].rr(entry.qid) >= reports["c2"].rr(entry.qid) - 1e-9

    rep = report("fig4_effectiveness")
    rep.line()
    rep.line(
        "shape check: MRR(C1) <= MRR(C2) <= MRR(C3) and C3 best per query — OK"
    )
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)


def _emit_per_query_table(report, engines, workload, dataset):
    reports = {
        name: evaluate_effectiveness(engine, workload, k=10)
        for name, engine in engines.items()
    }
    rep = report("fig4_effectiveness")
    rep.line()
    rep.line(f"Per-query reciprocal rank on {dataset} (paper Fig. 4):")
    rows = [
        (
            entry.qid,
            " ".join(entry.keywords),
            f"{reports['c1'].rr(entry.qid):.2f}",
            f"{reports['c2'].rr(entry.qid):.2f}",
            f"{reports['c3'].rr(entry.qid):.2f}",
        )
        for entry in workload
    ]
    rep.table(("query", "keywords", "C1", "C2", "C3"), rows)
