"""Unit tests for the dataset generators."""

import pytest

from repro.datasets import (
    DblpConfig,
    LubmConfig,
    TapConfig,
    generate_dblp,
    generate_lubm,
    generate_tap,
    iter_lubm_triples,
)
from repro.datasets.dblp import DBLP, DECOY_CONFERENCE_NAMES, DECOY_PERSON_NAMES
from repro.datasets.lubm import UB
from repro.datasets.tap import TAP
from repro.datasets import vocab
from repro.rdf.terms import Literal


def _ancestors(graph, cls):
    """Every class reachable from ``cls`` over direct superclass edges."""
    seen, stack = set(), [cls]
    while stack:
        for sup in graph.superclasses_of(stack.pop()):
            if sup not in seen:
                seen.add(sup)
                stack.append(sup)
    return seen


class TestDblp:
    def test_deterministic(self):
        g1 = generate_dblp(DblpConfig(publications=100))
        g2 = generate_dblp(DblpConfig(publications=100))
        assert list(g1) == list(g2)

    def test_seed_changes_output(self):
        g1 = generate_dblp(DblpConfig(publications=100, seed=1))
        g2 = generate_dblp(DblpConfig(publications=100, seed=2))
        assert list(g1) != list(g2)

    def test_scale_parameter(self):
        small = generate_dblp(DblpConfig(publications=50))
        large = generate_dblp(DblpConfig(publications=200))
        assert len(large) > len(small)

    def test_structural_regime(self, dblp_small):
        stats = dblp_small.stats()
        # Few classes, many values — the DBLP regime of Fig. 6b.
        assert stats["classes"] <= 10
        assert stats["values"] > 20 * stats["classes"]

    def test_anchor_authors_present(self, dblp_small):
        values = dblp_small.values
        for name in vocab.AUTHOR_ANCHORS:
            assert Literal(name) in values

    def test_anchor_venues_present(self, dblp_small):
        values = dblp_small.values
        for name in vocab.CONFERENCE_ANCHORS:
            assert Literal(name) in values

    def test_decoys_present_by_default(self, dblp_small):
        values = dblp_small.values
        for name in DECOY_PERSON_NAMES + DECOY_CONFERENCE_NAMES:
            assert Literal(name) in values

    def test_decoys_can_be_disabled(self):
        graph = generate_dblp(DblpConfig(publications=50, decoys=False))
        assert Literal(DECOY_PERSON_NAMES[0]) not in graph.values
        assert DBLP.editor not in graph.relation_labels

    def test_editor_relation_sparse(self, dblp_small):
        author_count = sum(1 for _ in dblp_small.relation_triples(DBLP.author))
        editor_count = sum(1 for _ in dblp_small.relation_triples(DBLP.editor))
        assert 0 < editor_count < author_count / 5

    def test_class_hierarchy(self, dblp_small):
        assert DBLP.Publication in dblp_small.superclasses_of(DBLP.Article)
        assert DBLP.Publication in dblp_small.superclasses_of(DBLP.InProceedings)

    def test_anchor_pub_years_support_workload(self, dblp_small):
        # Cimiano (anchor 0) must have publications in 2006, 2000, 1998.
        cimiano = DBLP.person0
        pub_years = set()
        for pred, pub in dblp_small.incoming(cimiano):
            if pred == DBLP.author:
                for p2, v in dblp_small.outgoing(pub):
                    if p2 == DBLP.year:
                        pub_years.add(v.lexical)
        assert {"2006", "2000", "1998"} <= pub_years

    def test_xmedia_project_linked(self, dblp_small):
        assert Literal("X-Media") in dblp_small.values
        assert any(True for _ in dblp_small.relation_triples(DBLP.hasProject))


class TestLubm:
    def test_deterministic(self):
        g1 = generate_lubm(LubmConfig(universities=1))
        g2 = generate_lubm(LubmConfig(universities=1))
        assert list(g1) == list(g2)

    def test_streaming_generator_matches_graph_build(self):
        # The out-of-core build path consumes iter_lubm_triples directly;
        # it must yield exactly the triples generate_lubm materializes.
        config = LubmConfig(universities=2)
        streamed = list(iter_lubm_triples(config))
        assert streamed == list(generate_lubm(config))

    def test_streaming_generator_deterministic(self):
        config = LubmConfig(universities=1)
        assert list(iter_lubm_triples(config)) == list(iter_lubm_triples(config))

    def test_streaming_generator_is_lazy(self):
        # A generator, not a list: the first triples arrive without
        # exhausting the source.
        it = iter_lubm_triples(LubmConfig(universities=1))
        assert iter(it) is it
        assert next(it) is not None

    def test_universities_scale(self):
        one = generate_lubm(LubmConfig(universities=1))
        two = generate_lubm(LubmConfig(universities=2))
        assert len(two) > 1.5 * len(one)

    def test_class_hierarchy_depth(self, lubm_small):
        supers = _ancestors(lubm_small, UB.FullProfessor)
        assert {UB.Professor, UB.Faculty, UB.Employee, UB.Person} <= supers

    def test_every_department_in_university(self, lubm_small):
        for triple in lubm_small.relation_triples(UB.subOrganizationOf):
            kinds = lubm_small.types_of(triple.object)
            assert kinds & {UB.University, UB.Department}

    def test_every_grad_student_has_advisor(self, lubm_small):
        grads = lubm_small.instances_of(UB.GraduateStudent)
        advised = {t.subject for t in lubm_small.relation_triples(UB.advisor)}
        assert grads <= advised

    def test_head_of_department_exists(self, lubm_small):
        assert any(True for _ in lubm_small.relation_triples(UB.headOf))


class TestTap:
    def test_deterministic(self):
        assert list(generate_tap()) == list(generate_tap())

    def test_many_classes(self, tap_small):
        # TAP's defining property: classes dominate relative to instances.
        stats = tap_small.stats()
        assert stats["classes"] >= 40

    def test_anchor_instances(self, tap_small):
        assert Literal("Michael Jordan") in tap_small.values
        assert Literal("Germany") in tap_small.values

    def test_anchor_relation(self, tap_small):
        jordan = TAP["Michael_Jordan"]
        bulls = TAP["Chicago_Bulls"]
        assert any(
            t.object == bulls
            for t in tap_small.relation_triples(TAP.playsFor)
            if t.subject == jordan
        )

    def test_hierarchy_rooted_at_entity(self, tap_small):
        supers = _ancestors(tap_small, TAP.Basketball)
        assert TAP.Entity in supers

    def test_instances_per_class_config(self):
        small = generate_tap(TapConfig(instances_per_class=2))
        large = generate_tap(TapConfig(instances_per_class=10))
        assert len(large) > len(small)
