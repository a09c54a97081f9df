"""Unit tests for the cost models C1/C2/C3 (Section V)."""

import pytest

from repro.datasets.example import EX
from repro.keyword.keyword_index import ClassMatch, ValueMatch
from repro.rdf.terms import Literal
from repro.scoring import cost
from repro.scoring.cost import (
    KeywordMatchCost,
    PathLengthCost,
    PopularityCost,
    make_cost_model,
)
from repro.summary.augmentation import augment
from repro.summary.summary_graph import SummaryGraph


@pytest.fixture(scope="module")
def augmented(example_graph):
    summary = SummaryGraph.from_data_graph(example_graph)
    matches = [
        [ValueMatch(Literal("AIFB"), frozenset({(EX.name, EX.Institute)}), 0.5)],
        [ClassMatch(EX.Publication, 0.8)],
    ]
    return augment(summary, matches)


class TestPathLength:
    def test_every_element_costs_one(self, augmented):
        costs = PathLengthCost().element_costs(augmented)
        assert costs
        assert all(c == 1.0 for c in costs.values())

    def test_covers_all_elements(self, augmented):
        costs = PathLengthCost().element_costs(augmented)
        assert len(costs) == len(augmented.graph)


class TestPopularity:
    def test_popular_class_cheaper(self, augmented):
        costs = PopularityCost().element_costs(augmented)
        # Researcher aggregates 2 entities, Publication 2, Project 2,
        # Institute 2 — compare against a single-instance situation instead:
        # all class costs must be strictly below 1 (every class has instances).
        for vertex in augmented.graph.vertices:
            if vertex.key[0] == "class" and vertex.agg_count > 0:
                assert costs[vertex.key] < 1.0

    def test_popular_relation_cheaper_than_rare(self, augmented):
        costs = PopularityCost().element_costs(augmented)
        author = next(e for e in augmented.graph.edges if e.name == "author")
        has_project = next(
            e for e in augmented.graph.edges if e.name == "hasProject"
        )
        assert costs[author.key] < costs[has_project.key]

    def test_value_vertices_cost_one(self, augmented):
        costs = PopularityCost().element_costs(augmented)
        assert costs[("value", Literal("AIFB"))] == 1.0

    def test_attribute_edges_cost_one(self, augmented):
        costs = PopularityCost().element_costs(augmented)
        key = ("edge", EX.name, ("class", EX.Institute), ("value", Literal("AIFB")))
        assert costs[key] == 1.0

    def test_costs_positive(self, augmented):
        costs = PopularityCost().element_costs(augmented)
        assert all(c > 0 for c in costs.values())


class TestKeywordMatch:
    def test_keyword_elements_divided_by_score(self, augmented):
        base_costs = PopularityCost().element_costs(augmented)
        c3_costs = KeywordMatchCost().element_costs(augmented)
        value_key = ("value", Literal("AIFB"))
        assert c3_costs[value_key] == pytest.approx(base_costs[value_key] / 0.5)
        class_key = ("class", EX.Publication)
        assert c3_costs[class_key] == pytest.approx(base_costs[class_key] / 0.8)

    def test_non_keyword_elements_unchanged(self, augmented):
        base_costs = PopularityCost().element_costs(augmented)
        c3_costs = KeywordMatchCost().element_costs(augmented)
        key = ("class", EX.Researcher)
        assert c3_costs[key] == pytest.approx(base_costs[key])

    def test_higher_score_cheaper(self, augmented):
        c3_costs = KeywordMatchCost().element_costs(augmented)
        # score 0.8 element must be cheaper relative to its base than 0.5 one
        value_key = ("value", Literal("AIFB"))  # sm=0.5, base 1.0
        assert c3_costs[value_key] == pytest.approx(2.0)

    def test_min_score_floor(self, augmented, monkeypatch):
        monkeypatch.setattr(cost, "MIN_SCORE", 0.5)
        # A score below the floor is clamped; costs stay bounded.
        costs = KeywordMatchCost().element_costs(augmented)
        assert all(c <= 2.5 for c in costs.values())


class TestFactory:
    @pytest.mark.parametrize("name", ["c1", "c2", "c3", "pagerank"])
    def test_known_models(self, name):
        assert make_cost_model(name).name == name

    def test_case_insensitive(self):
        assert make_cost_model("C1").name == "c1"

    def test_unknown_model(self):
        with pytest.raises(ValueError):
            make_cost_model("c9")
