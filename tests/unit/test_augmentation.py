"""Unit tests for augmentation of the summary graph (Definition 5)."""

import pytest

from repro.datasets.example import EX
from repro.keyword.keyword_index import (
    AttributeMatch,
    ClassMatch,
    RelationMatch,
    ValueMatch,
)
from repro.rdf.terms import Literal
from repro.summary.augmentation import augment
from repro.summary.elements import SummaryEdgeKind, SummaryVertexKind, THING_KEY
from repro.summary.summary_graph import SummaryGraph


@pytest.fixture(scope="module")
def summary(example_graph):
    return SummaryGraph.from_data_graph(example_graph)


def value_match(literal, occurrences, score=1.0):
    return ValueMatch(Literal(literal), frozenset(occurrences), score)


class TestValueAugmentation:
    def test_value_vertex_and_edges_added(self, summary):
        match = value_match("AIFB", [(EX.name, EX.Institute)])
        augmented = augment(summary, [[match]])
        value_key = ("value", Literal("AIFB"))
        assert augmented.graph.has_element(value_key)
        edge_key = ("edge", EX.name, ("class", EX.Institute), value_key)
        assert augmented.graph.has_element(edge_key)
        assert augmented.graph.edge(edge_key).kind is SummaryEdgeKind.ATTRIBUTE

    def test_value_vertex_is_keyword_element(self, summary):
        match = value_match("AIFB", [(EX.name, EX.Institute)])
        augmented = augment(summary, [[match]])
        assert ("value", Literal("AIFB")) in augmented.keyword_elements[0]

    def test_value_score_recorded(self, summary):
        match = value_match("AIFB", [(EX.name, EX.Institute)], score=0.7)
        augmented = augment(summary, [[match]])
        assert augmented.matching_score(("value", Literal("AIFB"))) == 0.7

    def test_multiple_occurrence_classes(self, summary):
        match = value_match(
            "shared", [(EX.name, EX.Institute), (EX.name, EX.Project)]
        )
        augmented = augment(summary, [[match]])
        value_key = ("value", Literal("shared"))
        incident = augmented.graph.incident_edges(value_key)
        assert len(incident) == 2

    def test_untyped_occurrence_maps_to_thing(self, summary):
        match = value_match("orphan", [(EX.name, None)])
        augmented = augment(summary, [[match]])
        assert augmented.graph.has_element(THING_KEY)
        edge_key = ("edge", EX.name, THING_KEY, ("value", Literal("orphan")))
        assert augmented.graph.has_element(edge_key)

    def test_unknown_class_dropped(self, summary):
        match = value_match("ghost", [(EX.name, EX.UnknownClass)])
        augmented = augment(summary, [[match]])
        assert not augmented.graph.has_element(("value", Literal("ghost")))
        assert augmented.keyword_elements[0] == set()


class TestAttributeAugmentation:
    def test_artificial_node_and_edges(self, summary):
        match = AttributeMatch(EX.name, frozenset({EX.Institute, EX.Project}), 1.0)
        augmented = augment(summary, [[match]])
        artificial_key = ("avalue", EX.name)
        assert augmented.graph.has_element(artificial_key)
        vertex = augmented.graph.vertex(artificial_key)
        assert vertex.kind is SummaryVertexKind.ARTIFICIAL
        assert len(augmented.graph.incident_edges(artificial_key)) == 2

    def test_added_edges_are_keyword_elements(self, summary):
        match = AttributeMatch(EX.name, frozenset({EX.Institute}), 0.9)
        augmented = augment(summary, [[match]])
        edge_key = ("edge", EX.name, ("class", EX.Institute), ("avalue", EX.name))
        assert edge_key in augmented.keyword_elements[0]
        assert augmented.matching_score(edge_key) == 0.9


class TestClassAndRelation:
    def test_class_match_marks_vertex(self, summary):
        augmented = augment(summary, [[ClassMatch(EX.Publication, 0.8)]])
        key = ("class", EX.Publication)
        assert key in augmented.keyword_elements[0]
        assert augmented.matching_score(key) == 0.8

    def test_unknown_class_match_ignored(self, summary):
        augmented = augment(summary, [[ClassMatch(EX.Nope, 1.0)]])
        assert augmented.keyword_elements[0] == set()

    def test_relation_match_marks_all_edges(self, summary):
        augmented = augment(summary, [[RelationMatch(EX.author, 1.0)]])
        elements = augmented.keyword_elements[0]
        assert elements
        for key in elements:
            assert augmented.graph.edge(key).label == EX.author


class TestGeneral:
    def test_base_summary_not_mutated(self, summary):
        before = len(summary)
        augment(summary, [[value_match("AIFB", [(EX.name, EX.Institute)])]])
        assert len(summary) == before

    def test_score_keeps_maximum(self, summary):
        low = ClassMatch(EX.Publication, 0.3)
        high = ClassMatch(EX.Publication, 0.9)
        augmented = augment(summary, [[low], [high]])
        assert augmented.matching_score(("class", EX.Publication)) == 0.9

    def test_default_score_is_one(self, summary):
        augmented = augment(summary, [[]])
        assert augmented.matching_score(("class", EX.Publication)) == 1.0

