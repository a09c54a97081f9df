"""Unit tests for the subgraph → conjunctive query mapping (Section VI-D)."""

import pytest

from repro.core.query_mapping import QueryMappingError, map_to_query
from repro.core.subgraph import MatchingSubgraph
from repro.datasets.example import EX
from repro.rdf.namespace import RDF, RDFS
from repro.rdf.terms import Literal, URI, Variable
from repro.summary.elements import SummaryEdgeKind, THING_KEY
from repro.summary.overlay import OverlaySummaryGraph
from repro.summary.summary_graph import SummaryGraph

_SUBCLASS = URI("http://www.w3.org/2000/01/rdf-schema#subClassOf")


def build_graph():
    """A small augmented summary graph with every edge kind: classes,
    relations and the subclass edge in the base summary graph, the value
    vertices and their A-edges in an overlay, as augmentation adds them."""
    base = SummaryGraph()
    pub = base.add_class_vertex(EX.Publication, agg_count=2).key
    res = base.add_class_vertex(EX.Researcher, agg_count=2).key
    person = base.add_class_vertex(EX.Person).key
    thing = base.ensure_thing(agg_count=1).key
    author = base.add_edge(EX.author, SummaryEdgeKind.RELATION, pub, res).key
    subclass = base.add_edge(_SUBCLASS, SummaryEdgeKind.SUBCLASS, res, person).key
    thing_rel = base.add_edge(EX.knows, SummaryEdgeKind.RELATION, res, thing).key
    loop = base.add_edge(EX.cites, SummaryEdgeKind.RELATION, pub, pub).key

    graph = OverlaySummaryGraph(base)
    value = graph.add_value_vertex(Literal("2006")).key
    artificial = graph.add_artificial_value_vertex(EX.name).key
    year = graph.add_edge(EX.year, SummaryEdgeKind.ATTRIBUTE, pub, value).key
    name = graph.add_edge(EX.name, SummaryEdgeKind.ATTRIBUTE, res, artificial).key
    return graph, {
        "pub": pub, "res": res, "person": person, "thing": thing,
        "value": value, "artificial": artificial, "author": author,
        "year": year, "name": name, "subclass": subclass,
        "thing_rel": thing_rel, "loop": loop,
    }


def chain_graph(classes):
    """``classes`` class vertices in a row, neighbours joined by one relation
    edge each (``r0`` .. in ``repr`` order): a path over all of it needs one
    variable per class.  Short URIs: its renderings are frozen as literals."""
    graph = SummaryGraph()
    vertices = [graph.add_class_vertex(URI(f"u:C{i}")).key for i in range(classes)]
    edges = [
        graph.add_edge(URI(f"u:r{i}"), SummaryEdgeKind.RELATION, source, target).key
        for i, (source, target) in enumerate(zip(vertices, vertices[1:]))
    ]
    return graph, vertices, edges


def chain_subgraph(vertices, edges):
    path = [key for pair in zip(vertices, edges) for key in pair] + [vertices[-1]]
    return single_path_subgraph(path)


def single_path_subgraph(elements, connecting=None):
    return MatchingSubgraph(connecting or elements[0], [list(elements)], 1.0)


def atom_signature(query):
    return {(a.predicate, not isinstance(a.arg1, Variable), a.arg2 if not isinstance(a.arg2, Variable) else None)
            for a in query.atoms}


class TestAttributeEdges:
    def test_value_edge_maps_to_type_plus_constant_atom(self):
        graph, k = build_graph()
        sg = single_path_subgraph([k["pub"], k["year"], k["value"]])
        query = map_to_query(sg, graph)
        predicates = {(a.predicate, a.arg2) for a in query.atoms}
        assert (RDF.type, EX.Publication) in predicates
        assert (EX.year, Literal("2006")) in predicates
        assert len(query.atoms) == 2

    def test_artificial_edge_maps_to_variable_object(self):
        graph, k = build_graph()
        sg = single_path_subgraph([k["res"], k["name"], k["artificial"]])
        query = map_to_query(sg, graph)
        name_atom = next(a for a in query.atoms if a.predicate == EX.name)
        assert isinstance(name_atom.arg2, Variable)


class TestRelationEdges:
    def test_relation_emits_both_type_atoms(self):
        graph, k = build_graph()
        sg = single_path_subgraph([k["pub"], k["author"], k["res"]])
        query = map_to_query(sg, graph)
        type_constants = {a.arg2 for a in query.atoms if a.predicate == RDF.type}
        assert type_constants == {EX.Publication, EX.Researcher}
        author_atom = next(a for a in query.atoms if a.predicate == EX.author)
        assert isinstance(author_atom.arg1, Variable)
        assert isinstance(author_atom.arg2, Variable)
        assert author_atom.arg1 != author_atom.arg2

    def test_thing_vertex_gets_no_type_atom(self):
        graph, k = build_graph()
        sg = single_path_subgraph([k["res"], k["thing_rel"], k["thing"]])
        query = map_to_query(sg, graph)
        type_constants = {a.arg2 for a in query.atoms if a.predicate == RDF.type}
        assert type_constants == {EX.Researcher}

    def test_self_loop_gets_fresh_target_variable(self):
        graph, k = build_graph()
        sg = single_path_subgraph([k["pub"], k["loop"]])
        query = map_to_query(sg, graph)
        cites = next(a for a in query.atoms if a.predicate == EX.cites)
        assert cites.arg1 != cites.arg2  # not cites(?x, ?x)
        # Both ends still typed Publication.
        type_vars = {
            a.arg1 for a in query.atoms
            if a.predicate == RDF.type and a.arg2 == EX.Publication
        }
        assert {cites.arg1, cites.arg2} == type_vars


class TestSubclassEdges:
    def test_subclass_maps_to_ground_atom(self):
        graph, k = build_graph()
        sg = single_path_subgraph([k["res"], k["subclass"], k["person"]])
        query = map_to_query(sg, graph, subclass_predicate=_SUBCLASS)
        subclass_atom = next(a for a in query.atoms if a.predicate == _SUBCLASS)
        assert subclass_atom.arg1 == EX.Researcher
        assert subclass_atom.arg2 == EX.Person


class TestIsolatedVertices:
    def test_isolated_class_vertex(self):
        graph, k = build_graph()
        sg = single_path_subgraph([k["pub"]])
        query = map_to_query(sg, graph)
        assert len(query.atoms) == 1
        assert query.atoms[0].predicate == RDF.type
        assert query.atoms[0].arg2 == EX.Publication

    def test_isolated_value_vertex_anchored_through_incident_edge(self):
        graph, k = build_graph()
        sg = single_path_subgraph([k["value"]])
        query = map_to_query(sg, graph)
        predicates = {a.predicate for a in query.atoms}
        assert EX.year in predicates
        assert RDF.type in predicates

    def test_isolated_thing_fails(self):
        graph, k = build_graph()
        sg = single_path_subgraph([k["thing"]])
        with pytest.raises(QueryMappingError):
            map_to_query(sg, graph)

    def test_dangling_value_vertex_fails(self):
        graph = OverlaySummaryGraph(SummaryGraph())
        orphan = graph.add_value_vertex(Literal("x")).key
        sg = single_path_subgraph([orphan])
        with pytest.raises(QueryMappingError):
            map_to_query(sg, graph)


class TestGeneral:
    def test_custom_type_predicate(self):
        graph, k = build_graph()
        sg = single_path_subgraph([k["pub"]])
        query = map_to_query(sg, graph, type_predicate=URI("type"))
        assert query.atoms[0].predicate == URI("type")

    def test_variables_are_named_in_assignment_order_and_the_seventh_is_x7(self):
        graph, vertices, edges = chain_graph(9)
        query = map_to_query(chain_subgraph(vertices, edges), graph)
        assert [v.name for v in query.distinguished] == [
            "x", "y", "z", "u", "v", "w", "x7", "x8", "x9",
        ]
        # r0 is mapped first, so ?x is C0 and ?x7 is C6.
        typed = {a.arg1.name: a.arg2 for a in query.atoms if a.predicate == RDF.type}
        assert (typed["x"], typed["x7"], typed["x9"]) == (
            URI("u:C0"), URI("u:C6"), URI("u:C8"),
        )

    def test_deterministic_output(self):
        graph, k = build_graph()
        sg = MatchingSubgraph(
            k["res"],
            [
                [k["value"], k["year"], k["pub"], k["author"], k["res"]],
                [k["artificial"], k["name"], k["res"]],
            ],
            5.0,
        )
        q1 = map_to_query(sg, graph)
        q2 = map_to_query(sg, graph)
        assert q1 == q2

    def test_all_variables_distinguished_by_default(self):
        graph, k = build_graph()
        sg = single_path_subgraph([k["pub"], k["author"], k["res"]])
        query = map_to_query(sg, graph)
        assert set(query.distinguished) == set(query.variables)

    def test_explicit_projection(self):
        graph, k = build_graph()
        sg = single_path_subgraph([k["pub"], k["year"], k["value"]])
        full = map_to_query(sg, graph)
        projected = map_to_query(sg, graph, distinguished=[full.variables[0]])
        assert len(projected.distinguished) == 1

    def test_connected_subgraph_yields_connected_query(self):
        graph, k = build_graph()
        sg = MatchingSubgraph(
            k["res"],
            [
                [k["value"], k["year"], k["pub"], k["author"], k["res"]],
                [k["artificial"], k["name"], k["res"]],
            ],
            5.0,
        )
        assert map_to_query(sg, graph).is_connected()
