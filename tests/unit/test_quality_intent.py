"""The paper's reciprocal rank (Section VII-A), defined once.

``repro.quality.metrics.intent_reciprocal_rank`` is what Fig. 4's MRR
(``benchmarks/test_fig4_effectiveness.py``) and the gated ``intent_mrr``
of ``repro eval`` both average; the last case here holds the two
consumers to the same number.
"""

import os

import pytest

from repro.core.engine import KeywordSearchEngine
from repro.datasets import effectiveness_workload
from repro.datasets.dblp import DBLP
from repro.datasets.example import EX
from repro.datasets.workloads import IntentSpec, OneOf
from repro.quality import (
    build_eval_engine,
    evaluate_quality,
    intent_reciprocal_rank,
    load_goldens,
    mean_of,
)
from repro.quality.runner import DEFAULT_EVAL_K
from repro.query.conjunctive import Atom, ConjunctiveQuery
from repro.rdf.namespace import RDF
from repro.rdf.terms import Literal, Variable

EVAL_DIR = os.path.join(os.path.dirname(__file__), "..", "..", "eval")

x = Variable("x")


def intent():
    return IntentSpec([(DBLP.year, "?x", Literal("1999"))])


def query(year):
    return ConjunctiveQuery([Atom(DBLP.year, x, Literal(year))])


class TestIntentReciprocalRank:
    def test_rank_one(self):
        assert intent_reciprocal_rank([query("1999")], intent()) == 1.0

    def test_rank_two(self):
        assert intent_reciprocal_rank([query("2000"), query("1999")], intent()) == 0.5

    def test_no_match(self):
        assert intent_reciprocal_rank([query("2000")], intent()) == 0.0

    def test_empty_results(self):
        assert intent_reciprocal_rank([], intent()) == 0.0

    def test_no_intent_is_undefined(self):
        """An entry without an intent spec has no RR; ``mean_of`` leaves
        it out rather than averaging it in as a zero."""
        assert intent_reciprocal_rank([query("1999")], None) is None
        assert mean_of([1.0, intent_reciprocal_rank([], None), 0.5]) == 0.75

    def test_fig1c_query_ranks_first_on_the_running_example(self, example_graph):
        engine = KeywordSearchEngine(example_graph, cost_model="c3")
        fig1c = IntentSpec(
            [
                (RDF.type, "?x", OneOf(EX.Publication)),
                (EX.year, "?x", Literal("2006")),
                (EX.author, "?x", "?y"),
                (EX.name, "?y", Literal("P. Cimiano")),
                (EX.worksAt, "?y", "?z"),
                (EX.name, "?z", Literal("AIFB")),
            ]
        )
        result = engine.search(["2006", "cimiano", "aifb"], k=5)
        assert intent_reciprocal_rank(result.queries, fig1c) == 1.0


@pytest.mark.parametrize("dataset", ["example", "tap"])
def test_gated_intent_mrr_is_the_mean_of_the_shared_function(dataset):
    """``evaluate_quality``'s ``intent_mrr`` is the Fig. 4 computation over
    the goldens' ``intent_qid`` workload entries: same engine, same k."""
    goldens = load_goldens(os.path.join(EVAL_DIR, "goldens", f"{dataset}.jsonl"))
    engine, _ = build_eval_engine(dataset)
    workload = {entry.qid: entry for entry in effectiveness_workload(dataset)}
    k = max(DEFAULT_EVAL_K, engine.k)
    entries = [workload[case.intent_qid] for case in goldens if case.intent_qid]
    assert entries
    expected = mean_of(
        [
            intent_reciprocal_rank(
                engine.search(entry.keywords, k=k).queries, entry.intent
            )
            for entry in entries
        ]
    )
    report = evaluate_quality(engine, goldens, eval_k=DEFAULT_EVAL_K)
    assert report["aggregates"]["intent_mrr"] == expected
    assert report["counts"]["intent_mrr"] == len(entries)
