"""Unit tests for the summary graph (Definition 4)."""

import pytest

from repro.datasets.example import EX
from repro.rdf.graph import DataGraph
from repro.rdf.namespace import RDF
from repro.rdf.triples import Triple
from repro.summary.elements import (
    THING_KEY,
    SummaryEdgeKind,
    SummaryVertexKind,
    is_edge_key,
)
from repro.summary.summary_graph import SummaryGraph


@pytest.fixture(scope="module")
def summary(example_graph):
    return SummaryGraph.from_data_graph(example_graph)


class TestConstruction:
    def test_one_vertex_per_class(self, summary, example_graph):
        class_vertices = [
            v for v in summary.vertices if v.kind is SummaryVertexKind.CLASS
        ]
        assert len(class_vertices) == len(example_graph.classes)

    def test_no_thing_when_all_typed(self, summary):
        assert not summary.has_element(THING_KEY)

    def test_thing_aggregates_untyped(self):
        graph = DataGraph(
            [
                Triple(EX.a, EX.rel, EX.b),  # both untyped
                Triple(EX.c, RDF.type, EX.C1),
            ]
        )
        summary = SummaryGraph.from_data_graph(graph)
        thing = summary.vertex(THING_KEY)
        assert thing.agg_count == 2

    def test_aggregation_counts(self, summary):
        researcher = summary.vertex(("class", EX.Researcher))
        assert researcher.agg_count == 2
        project = summary.vertex(("class", EX.Project))
        assert project.agg_count == 2

    def test_relation_edges_projected_to_classes(self, summary):
        edge_names = {(e.name, e.source_key, e.target_key) for e in summary.edges}
        assert (
            "author",
            ("class", EX.Publication),
            ("class", EX.Researcher),
        ) in edge_names

    def test_relation_edge_aggregation_count(self, summary):
        edge = next(e for e in summary.edges if e.name == "author")
        assert edge.agg_count == 2  # pub1 has two author edges

    def test_subclass_edges_preserved(self, summary):
        subclass_edges = [
            e for e in summary.edges if e.kind is SummaryEdgeKind.SUBCLASS
        ]
        assert len(subclass_edges) == 3

    def test_attribute_edges_not_in_base_summary(self, summary):
        assert all(e.kind is not SummaryEdgeKind.ATTRIBUTE for e in summary.edges)

    def test_totals_recorded(self, summary, example_graph):
        stats = example_graph.stats()
        assert summary.total_entities == stats["entities"]
        assert summary.total_relation_edges == stats["relation_edges"]

    def test_multi_typed_entity_counted_per_class(self):
        graph = DataGraph(
            [
                Triple(EX.a, RDF.type, EX.C1),
                Triple(EX.a, RDF.type, EX.C2),
                Triple(EX.a, EX.rel, EX.a),
            ]
        )
        summary = SummaryGraph.from_data_graph(graph)
        assert summary.vertex(("class", EX.C1)).agg_count == 1
        assert summary.vertex(("class", EX.C2)).agg_count == 1
        # The self-relation projects to all four class combinations.
        relation_edges = [
            e for e in summary.edges if e.kind is SummaryEdgeKind.RELATION
        ]
        assert len(relation_edges) == 4


class TestPathSoundness:
    def test_every_data_relation_has_summary_edge(self, summary, example_graph):
        for triple in example_graph.relation_triples():
            source_classes = example_graph.types_of(triple.subject) or {None}
            target_classes = example_graph.types_of(triple.object) or {None}
            found = any(
                summary.has_element(
                    (
                        "edge",
                        triple.predicate,
                        summary.class_key(sc),
                        summary.class_key(tc),
                    )
                )
                for sc in source_classes
                for tc in target_classes
            )
            assert found, f"no summary edge for {triple}"


class TestNavigation:
    def test_neighbors_of_vertex_are_edges(self, summary):
        for key in summary.incident_edges(("class", EX.Publication)):
            assert is_edge_key(key)

    def test_neighbors_of_edge_are_endpoints(self, summary):
        edge = next(e for e in summary.edges if e.name == "author")
        assert set(summary.neighbors(edge.key)) == {
            ("class", EX.Publication),
            ("class", EX.Researcher),
        }

    def test_self_loop_neighbor_single(self):
        graph = DataGraph(
            [
                Triple(EX.a, RDF.type, EX.C1),
                Triple(EX.b, RDF.type, EX.C1),
                Triple(EX.a, EX.rel, EX.b),
            ]
        )
        summary = SummaryGraph.from_data_graph(graph)
        loop = next(e for e in summary.edges if e.kind is SummaryEdgeKind.RELATION)
        assert summary.neighbors(loop.key) == (("class", EX.C1),)

    def test_degree(self, summary):
        # author + hasProject edges touch Publication; no subclass edge does.
        assert summary.degree(("class", EX.Publication)) == 2

    def test_element_lookup(self, summary):
        vertex = summary.element(("class", EX.Publication))
        assert vertex.kind is SummaryVertexKind.CLASS
        edge_key = summary.incident_edges(("class", EX.Publication))[0]
        assert is_edge_key(summary.element(edge_key).key)


class TestMutators:
    # Mutating tests build their own graph: `summary` is module-scoped.
    def test_add_edge_requires_endpoints(self, example_graph):
        own = SummaryGraph.from_data_graph(example_graph)
        with pytest.raises(KeyError):
            own.add_edge(EX.rel, SummaryEdgeKind.RELATION, ("class", EX.Nope), THING_KEY)

    def test_add_edge_idempotent(self, example_graph):
        own = SummaryGraph.from_data_graph(example_graph)
        ends = (("class", EX.Project), ("class", EX.Researcher))
        e1 = own.add_edge(EX.rel, SummaryEdgeKind.RELATION, *ends)
        e2 = own.add_edge(EX.rel, SummaryEdgeKind.RELATION, *ends)
        assert e1 is e2

    def test_stats(self, summary):
        stats = summary.stats()
        assert stats["vertices"] == 6
        assert stats["edges"] == 6
        assert stats["estimated_bytes"] > 0
