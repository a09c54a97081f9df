"""Unit tests for the DataGraph classification (Definition 1)."""

import pytest

from repro.rdf.graph import DataGraph, EdgeKind, GraphIntegrityError, VertexKind
from repro.rdf.namespace import Namespace, RDF, RDFS
from repro.rdf.terms import Literal, URI
from repro.rdf.triples import Triple

EX = Namespace("http://t/")


def small_graph() -> DataGraph:
    return DataGraph(
        [
            Triple(EX.e1, RDF.type, EX.C1),
            Triple(EX.e2, RDF.type, EX.C2),
            Triple(EX.e1, EX.rel, EX.e2),
            Triple(EX.e1, EX.attr, Literal("v1")),
            Triple(EX.C1, RDFS.subClassOf, EX.C2),
            Triple(EX.e3, EX.rel, EX.e1),  # untyped entity
        ]
    )


class TestVertexClassification:
    def test_classes(self):
        g = small_graph()
        assert g.classes == {EX.C1, EX.C2}

    def test_entities(self):
        g = small_graph()
        assert g.entities == {EX.e1, EX.e2, EX.e3}

    def test_values(self):
        g = small_graph()
        assert g.values == {Literal("v1")}

    def test_vertex_kind(self):
        g = small_graph()
        assert g.vertex_kind(EX.C1) is VertexKind.CLASS
        assert g.vertex_kind(EX.e1) is VertexKind.ENTITY
        assert g.vertex_kind(Literal("v1")) is VertexKind.VALUE
        assert g.vertex_kind(EX.unknown) is None

    def test_sets_are_disjoint(self):
        g = small_graph()
        assert not (g.classes & g.entities)
        assert not ({t for t in g.values} & g.entities)


class TestEdgeClassification:
    def test_edge_kinds(self):
        g = small_graph()
        assert g.edge_kind(Triple(EX.e1, RDF.type, EX.C1)) is EdgeKind.TYPE
        assert g.edge_kind(Triple(EX.C1, RDFS.subClassOf, EX.C2)) is EdgeKind.SUBCLASS
        assert g.edge_kind(Triple(EX.e1, EX.rel, EX.e2)) is EdgeKind.RELATION
        assert g.edge_kind(Triple(EX.e1, EX.attr, Literal("v1"))) is EdgeKind.ATTRIBUTE

    def test_label_sets(self):
        g = small_graph()
        assert g.relation_labels == {EX.rel}
        assert g.attribute_labels == {EX.attr}

    def test_relation_triples_by_label(self):
        g = small_graph()
        assert len(list(g.relation_triples(EX.rel))) == 2
        assert len(list(g.relation_triples(EX.unknown))) == 0


class TestTypeStructure:
    def test_types_of(self):
        g = small_graph()
        assert g.types_of(EX.e1) == {EX.C1}
        assert g.types_of(EX.e3) == frozenset()

    def test_instances_of(self):
        g = small_graph()
        assert g.instances_of(EX.C1) == {EX.e1}

    def test_untyped_entities(self):
        g = small_graph()
        assert g.untyped_entities == {EX.e3}

    def test_superclasses_are_direct(self):
        g = DataGraph(
            [
                Triple(EX.A, RDFS.subClassOf, EX.B),
                Triple(EX.B, RDFS.subClassOf, EX.C),
            ]
        )
        assert g.superclasses_of(EX.A) == {EX.B}
        assert g.superclasses_of(EX.C) == frozenset()

    def test_a_pair_asserted_through_two_variants_counts_once(self):
        g = DataGraph(
            [
                Triple(EX.e1, RDF.type, EX.C1),
                Triple(EX.e1, URI("type"), EX.C1),
                Triple(EX.e2, URI("type"), EX.C1),
                Triple(EX.C1, RDFS.subClassOf, EX.C2),
                Triple(EX.C1, URI("subclass"), EX.C2),
            ]
        )
        assert g.instances_of(EX.C1) == {EX.e1, EX.e2}
        assert g.instance_count(EX.C1) == 2
        assert list(g.subclass_pairs()) == [(EX.C1, EX.C2)]
        g.remove(Triple(EX.e1, RDF.type, EX.C1))
        g.remove(Triple(EX.C1, RDFS.subClassOf, EX.C2))
        assert g.types_of(EX.e1) == {EX.C1} and g.untyped_entities == frozenset()
        assert g.superclasses_of(EX.C1) == {EX.C2}

    def test_an_edge_to_a_literal_types_nothing(self):
        g = DataGraph([Triple(EX.e1, RDF.type, Literal("C"))])
        assert g.types_of(EX.e1) == frozenset()
        assert g.instances_of(Literal("C")) == frozenset()
        assert g.instance_count(Literal("C")) == 0
        assert Triple(EX.e1, RDF.type, Literal("C")) in g.store

    def test_subclass_pairs(self):
        g = small_graph()
        assert list(g.subclass_pairs()) == [(EX.C1, EX.C2)]


class TestNavigation:
    def test_outgoing_incoming(self):
        g = small_graph()
        assert (EX.rel, EX.e2) in g.outgoing(EX.e1)
        assert (EX.rel, EX.e3) in g.incoming(EX.e1)

    def test_type_and_subclass_edges_are_not_adjacency(self):
        g = small_graph()
        assert set(g.outgoing(EX.e1)) == {(EX.rel, EX.e2), (EX.attr, Literal("v1"))}
        assert g.incoming(EX.C1) == ()
        assert g.outgoing(EX.C1) == ()
        assert g.incoming(Literal("v1")) == ((EX.attr, EX.e1),)


class TestArrivalOrder:
    """Iteration follows first arrival with duplicates dropped.  That
    order is a contract: ``save()`` streams it to the bundle builder, and
    ``perf/workloads.py::dataset_triples`` cuts a generated corpus in it."""

    def test_first_arrival_duplicates_dropped(self):
        t1, t2, t3 = (Triple(EX.e1, EX.rel, EX[f"e{i}"]) for i in (2, 3, 4))
        g = DataGraph([t2, t1, t2, t3, t1])
        assert list(g) == [t2, t1, t3] == list(g.triples)

    def test_a_removed_and_re_added_triple_goes_to_the_end(self):
        t1, t2, t3 = (Triple(EX.e1, EX.rel, EX[f"e{i}"]) for i in (2, 3, 4))
        g = DataGraph([t1, t2, t3])
        g.remove(t1)
        g.add(t1)
        assert g.triples == (t2, t3, t1)
        assert g.add(t2) is False and g.triples == (t2, t3, t1)

    def test_a_generated_corpus_is_its_stream_in_first_arrival_order(self):
        from repro.datasets.dblp import DblpConfig, dblp_triples, generate_dblp

        config = DblpConfig(publications=40)
        stream = list(dblp_triples(config))
        triples = generate_dblp(config).triples
        assert triples == tuple(dict.fromkeys(stream))
        assert DataGraph(triples[::-1]).triples == triples[::-1]


def test_per_triple_facts_live_only_in_the_store():
    """Every structure the graph keeps beside its store and its arrival
    order is per term or per predicate: 380 triples over 21 terms leave
    none of them above 21 entries."""
    entities = [EX[f"e{i}"] for i in range(20)]
    g = DataGraph(
        Triple(a, EX.knows, b) for a in entities for b in entities if a is not b
    )
    assert len(g) == len(g.store) == 380
    per_triple = {id(g._triples), id(g.store)}
    for name, value in vars(g).items():
        if id(value) not in per_triple and isinstance(value, (dict, set, list)):
            assert len(value) <= 21, name


class TestLabels:
    def test_label_from_name_attribute(self):
        g = DataGraph([Triple(EX.e1, URI("name"), Literal("Alice"))])
        assert g.label_of(EX.e1) == "Alice"

    def test_rdfs_label_preferred_over_name(self):
        g = DataGraph(
            [
                Triple(EX.e1, URI("name"), Literal("fallback")),
                Triple(EX.e1, RDFS.label, Literal("preferred")),
            ]
        )
        assert g.label_of(EX.e1) == "preferred"

    def test_a_tie_goes_to_the_smallest_lexical_form(self):
        ties = [Triple(EX.e1, RDFS.label, Literal(v)) for v in ("b", "a", "c")]
        for order in (ties, ties[::-1]):
            g = DataGraph([Triple(EX.e1, URI("name"), Literal("0")), *order])
            assert g.label_of(EX.e1) == "a"
            g.remove(ties[1])
            assert g.label_of(EX.e1) == "b"

    def test_label_falls_back_to_local_name(self):
        g = DataGraph([Triple(EX.e1, EX.rel, EX.e2)])
        assert g.label_of(EX.e1) == "e1"

    def test_literal_label_is_lexical(self):
        g = small_graph()
        assert g.label_of(Literal("v1")) == "v1"


class TestIntegrity:
    def test_duplicate_triples_ignored(self):
        g = DataGraph()
        t = Triple(EX.e1, EX.rel, EX.e2)
        assert g.add(t) is True
        assert g.add(t) is False
        assert len(g) == 1

    def test_class_entity_conflict_resolved_non_strict(self):
        g = DataGraph(
            [
                Triple(EX.e1, RDF.type, EX.C1),
                Triple(EX.C1, EX.rel, EX.e1),  # class used as entity
            ]
        )
        assert g.vertex_kind(EX.C1) is VertexKind.CLASS
        assert g.conflicts

    def test_strict_mode_raises(self):
        with pytest.raises(GraphIntegrityError):
            DataGraph(
                [
                    Triple(EX.e1, RDF.type, EX.C1),
                    Triple(EX.C1, EX.rel, EX.e1),
                ],
                strict=True,
            )

    def test_literal_typed_object_is_violation(self):
        g = DataGraph()
        g.add(Triple(EX.e1, RDF.type, Literal("bad")))
        assert g.conflicts

    def test_preferred_type_predicate_tracks_usage(self):
        g = DataGraph([Triple(EX.e1, URI("type"), EX.C1)])
        assert g.preferred_type_predicate == URI("type")

    def test_preferred_type_predicate_defaults_to_rdf(self):
        g = DataGraph()
        assert g.preferred_type_predicate == RDF.type

    def test_stats_counts(self, example_graph):
        stats = example_graph.stats()
        assert stats["triples"] == len(example_graph)
        assert stats["classes"] == 6
        assert stats["entities"] == 8


#: A graph without violations, and one triple per Definition 1 violation
#: kind that it makes the next triple commit.
_CLEAN = [
    Triple(EX.e1, RDF.type, EX.C1),
    Triple(EX.e2, EX.rel, EX.e3),
]
_VIOLATIONS = {
    "self-typed class": Triple(EX.C1, RDF.type, EX.C1),
    "self-typed fresh term": Triple(EX.x, RDF.type, EX.x),
    "class used as an entity": Triple(EX.C1, EX.rel, EX.e1),
    "entity used as a class": Triple(EX.e2, RDFS.subClassOf, EX.C1),
    "entity typed by an entity": Triple(EX.e2, RDF.type, EX.e3),
    "type edge to a literal": Triple(EX.e1, RDF.type, Literal("x")),
    "subclass edge to a literal": Triple(EX.C1, RDFS.subClassOf, Literal("x")),
}


@pytest.mark.parametrize("case", sorted(_VIOLATIONS))
def test_every_path_names_a_violation_alike(case, tmp_path):
    """The strict graph raises the conflict the non-strict one records
    first, and so does a loaded strict graph: each checks the roles a
    triple acquires in the order acquisition takes them."""
    from repro.storage import build_bundle_streaming, load_bundle

    triple = _VIOLATIONS[case]
    relaxed = DataGraph(_CLEAN)
    relaxed.add(triple)
    first = relaxed.conflicts[0]
    with pytest.raises(GraphIntegrityError) as strict:
        DataGraph(_CLEAN, strict=True).add(triple)
    path = tmp_path / "clean.reprobundle"
    build_bundle_streaming(_CLEAN, path, graph_strict=True)
    with pytest.raises(GraphIntegrityError) as loaded:
        load_bundle(path).graph.add(triple)
    assert str(strict.value) == first == str(loaded.value)


@pytest.mark.parametrize("tier", ["memory", "mmap"])
def test_a_conflict_is_recorded_once(tier, tmp_path):
    """Re-adding a conflicting triple does not repeat its message, on a
    constructed graph and on a loaded one."""
    from repro.storage import build_bundle_streaming, load_bundle

    triple = _VIOLATIONS["class used as an entity"]
    path = tmp_path / "clean.reprobundle"
    if tier == "memory":
        graph = DataGraph(_CLEAN)
    else:
        build_bundle_streaming(_CLEAN, path)
        graph = load_bundle(path).graph
    graph.add(triple)
    logged = graph.conflicts
    assert len(logged) == 1
    for _ in range(100):
        graph.remove(triple)
        graph.add(triple)
    assert graph.conflicts == logged


def test_the_builder_records_a_conflict_once(tmp_path):
    """Two triples that commit the same violation leave one message, in
    the streaming builder's header as in a constructed graph."""
    from repro.storage import build_bundle_streaming, load_bundle

    triple = _VIOLATIONS["class used as an entity"]
    once = DataGraph([*_CLEAN, triple]).conflicts
    assert len(once) == 1
    twice = [*_CLEAN, triple, Triple(EX.C1, EX.rel, EX.e2)]
    path = tmp_path / "twice.reprobundle"
    build_bundle_streaming(twice, path)
    assert load_bundle(path).graph.conflicts == DataGraph(twice).conflicts == once
