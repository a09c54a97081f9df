"""Unit tests for the evaluation harness."""

import pytest

from repro.core.engine import KeywordSearchEngine
from repro.datasets.dblp import DBLP
from repro.datasets.workloads import IntentSpec, WorkloadQuery
from repro.eval.effectiveness import (
    EffectivenessReport,
    evaluate_effectiveness,
    reciprocal_rank,
)
from repro.eval.index_stats import collect_index_stats
from repro.query.conjunctive import Atom, ConjunctiveQuery
from repro.rdf.terms import Literal, Variable

x = Variable("x")


def intent():
    return IntentSpec([(DBLP.year, "?x", Literal("1999"))])


def query(year):
    return ConjunctiveQuery([Atom(DBLP.year, x, Literal(year))])


class TestReciprocalRank:
    def test_rank_one(self):
        wq = WorkloadQuery("q", ["1999"], "d", intent())
        assert reciprocal_rank([query("1999")], wq) == 1.0

    def test_rank_two(self):
        wq = WorkloadQuery("q", ["1999"], "d", intent())
        assert reciprocal_rank([query("2000"), query("1999")], wq) == 0.5

    def test_no_match(self):
        wq = WorkloadQuery("q", ["1999"], "d", intent())
        assert reciprocal_rank([query("2000")], wq) == 0.0

    def test_empty_results(self):
        wq = WorkloadQuery("q", ["1999"], "d", intent())
        assert reciprocal_rank([], wq) == 0.0

    def test_missing_intent_raises(self):
        wq = WorkloadQuery("q", ["1999"], "d", None)
        with pytest.raises(ValueError):
            reciprocal_rank([], wq)


class TestReport:
    def test_mrr(self):
        report = EffectivenessReport("c3", {"a": 1.0, "b": 0.5})
        assert report.mrr == 0.75
        assert report.rr("a") == 1.0

    def test_empty_report(self):
        assert EffectivenessReport("c1", {}).mrr == 0.0


class TestEvaluateEffectiveness:
    def test_runs_workload(self, example_graph):
        from repro.datasets.example import EX
        from repro.rdf.namespace import RDF
        from repro.datasets.workloads import OneOf

        engine = KeywordSearchEngine(example_graph, cost_model="c3")
        workload = [
            WorkloadQuery(
                "E1",
                ["2006", "cimiano", "aifb"],
                "the Fig. 1c query",
                IntentSpec(
                    [
                        (RDF.type, "?x", OneOf(EX.Publication)),
                        (EX.year, "?x", Literal("2006")),
                        (EX.author, "?x", "?y"),
                        (EX.name, "?y", Literal("P. Cimiano")),
                        (EX.worksAt, "?y", "?z"),
                        (EX.name, "?z", Literal("AIFB")),
                    ]
                ),
            )
        ]
        report = evaluate_effectiveness(engine, workload, k=5)
        assert report.per_query["E1"] == 1.0
        assert report.mrr == 1.0


class TestIndexStats:
    def test_collects_row(self, example_graph):
        row = collect_index_stats("example", example_graph)
        assert row.dataset == "example"
        assert row.triples == len(example_graph)
        assert row.keyword_index_entries > 0
        assert row.graph_index_elements > 0
        assert row.summary_ratio > 1.0
        assert "triples" in row.as_dict()
