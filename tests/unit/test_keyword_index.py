"""Unit tests for the keyword-element map (Section IV-A)."""

import pytest

from repro.datasets.example import EX, running_example_graph
from repro.keyword import keyword_index
from repro.keyword.keyword_index import (
    AttributeMatch,
    ClassMatch,
    KeywordIndex,
    LookupMemo,
    RelationMatch,
    ValueMatch,
)
from repro.rdf.namespace import RDF, RDFS
from repro.rdf.terms import Literal
from repro.rdf.triples import Triple


@pytest.fixture(scope="module")
def index(example_graph):
    return KeywordIndex(example_graph)


def matches_of_type(matches, cls):
    return [m for m in matches if isinstance(m, cls)]


class TestLookupKinds:
    def test_class_keyword(self, index):
        matches = index.lookup("publication")
        classes = matches_of_type(matches, ClassMatch)
        assert any(m.cls == EX.Publication for m in classes)

    def test_value_keyword(self, index):
        matches = index.lookup("aifb")
        values = matches_of_type(matches, ValueMatch)
        assert any(m.value == Literal("AIFB") for m in values)

    def test_relation_keyword(self, index):
        matches = index.lookup("author")
        relations = matches_of_type(matches, RelationMatch)
        assert any(m.label == EX.author for m in relations)

    def test_attribute_keyword(self, index):
        matches = index.lookup("name")
        attributes = matches_of_type(matches, AttributeMatch)
        assert len(attributes) == 1
        # The `name` attribute is used by researchers, institutes, projects.
        assert EX.Researcher in attributes[0].classes
        assert EX.Institute in attributes[0].classes
        assert EX.Project in attributes[0].classes

    def test_entity_uris_not_indexed(self, index):
        # `pub1URI` identifies an E-vertex; the paper omits those.
        assert index.lookup("pub1URI") == []


class TestValueStructures:
    def test_value_match_carries_occurrence_structure(self, index):
        match = matches_of_type(index.lookup("cimiano"), ValueMatch)[0]
        # [V-vertex, A-edge, (C-vertex_1..n)]: name edge from Researcher.
        assert (EX.name, EX.Researcher) in match.occurrences

    def test_untyped_subject_yields_none_class(self, example_graph):
        from repro.rdf.graph import DataGraph
        from repro.rdf.triples import Triple

        graph = DataGraph([Triple(EX.mystery, EX.name, Literal("Orphan"))])
        index = KeywordIndex(graph)
        match = matches_of_type(index.lookup("orphan"), ValueMatch)[0]
        assert (EX.name, None) in match.occurrences


class TestImpreciseMatching:
    def test_stemming_matches_plural(self, index):
        assert index.lookup("publications")

    def test_fuzzy_matches_typo(self, index):
        matches = index.lookup("cimano")  # missing 'i'
        values = matches_of_type(matches, ValueMatch)
        assert any(m.value == Literal("P. Cimiano") for m in values)
        assert all(m.score < 1.0 for m in values)

    def test_synonym_match_scores_below_exact(self, index):
        # "paper" reaches class Publication through the lexicon.
        matches = matches_of_type(index.lookup("paper"), ClassMatch)
        assert matches
        assert all(m.score < 1.0 for m in matches)

    def test_exact_match_scores_one_for_single_term_label(self, index):
        matches = matches_of_type(index.lookup("aifb"), ValueMatch)
        assert matches[0].score == pytest.approx(1.0)

    def test_multi_term_label_coverage_penalty(self, index):
        # "cimiano" matches the two-term label "P. Cimiano".
        match = matches_of_type(index.lookup("cimiano"), ValueMatch)[0]
        assert match.score == pytest.approx((1 / 2) ** 0.5)


class TestMultiTermKeywords:
    def test_all_terms_must_match(self, index):
        matches = index.lookup("x media")
        values = matches_of_type(matches, ValueMatch)
        assert any(m.value == Literal("X-Media") for m in values)

    def test_conjunction_fails_if_one_term_misses(self, index):
        assert index.lookup("x nonexistentterm") == []

    def test_stopword_only_keyword_empty(self, index):
        assert index.lookup("the of") == []


class TestRanking:
    def test_sorted_by_score(self, index):
        matches = index.lookup("name")
        scores = [m.score for m in matches]
        assert scores == sorted(scores, reverse=True)

    def test_cap_respected(self, example_graph, monkeypatch):
        monkeypatch.setattr(keyword_index, "MAX_MATCHES_PER_KEYWORD", 1)
        index = KeywordIndex(example_graph)
        assert len(index.lookup("name")) == 1

    def test_lookup_all(self, index):
        per_keyword = index.lookup_all(["aifb", "cimiano"])
        assert len(per_keyword) == 2
        assert all(isinstance(m, ValueMatch) for m in per_keyword[0])


class TestStats:
    def test_stats_present(self, index):
        stats = index.stats()
        assert stats["terms"] > 0
        assert stats["elements"] > 0
        assert stats["build_seconds"] >= 0


class TestMatchObjects:
    def test_element_keys_distinct_across_kinds(self):
        assert ClassMatch(EX.x, 1).element_key != RelationMatch(EX.x, 1).element_key

    def test_immutability(self):
        m = ClassMatch(EX.Publication, 0.5)
        with pytest.raises(AttributeError):
            m.score = 1.0


def live(term):
    """Every term keeps a posting: only the acceptance sets decide."""
    return True


def links(memo):
    """(dependency, keyword) pairs the memo's reverse map holds."""
    return sum(len(keywords) for keywords in memo._dependents.values())


def posting_rows(index):
    """Every (term, element, tf, label_terms) row the index holds."""
    inverted = index._index
    return sorted(
        (term, repr(p.element), p.term_frequency, p.label_terms)
        for term in inverted.iter_terms()
        for p in inverted.lookup(term)
    )


class TestLookupCache:
    def test_repeated_lookup_hits_cache(self, example_graph):
        index = KeywordIndex(example_graph)
        first = index.lookup("publication")
        assert index.cache_stats()["hits"] == 0
        assert index.cache_stats()["misses"] == 1
        second = index.lookup("publication")
        assert first is not second  # callers get fresh lists
        assert all(a is b for a, b in zip(first, second))  # of shared matches
        assert [repr(m) for m in first] == [repr(m) for m in second]
        stats = index.cache_stats()
        assert (stats["hits"], stats["misses"], stats["size"]) == (1, 1, 1)
        assert stats["hit_rate"] == 0.5

    def test_only_a_changed_label_invalidates_an_entry(self):
        graph = running_example_graph()
        index = KeywordIndex(graph)
        before = index.lookup("publication")
        assert [(type(m), m.score) for m in before] == [(ClassMatch, 1.0)]

        # An unrelated class is refreshed: the version moves, the entry stays.
        version = index.version
        index.refresh_class(EX.Project)
        assert index.version > version
        assert all(a is b for a, b in zip(index.lookup("publication"), before))
        stats = index.cache_stats()
        assert (stats["hits"], stats["misses"], stats["invalidated"]) == (1, 1, 0)

        # Publication is relabelled "Paper": the entry goes, and the class
        # now matches through the lexicon (publication ~ paper) only.
        graph.add(Triple(EX.Publication, RDFS.label, Literal("Paper")))
        index.refresh_class(EX.Publication)
        stats = index.cache_stats()
        assert (stats["size"], stats["invalidated"]) == (0, 1)
        after = index.lookup("publication")
        assert index.cache_stats()["misses"] == 2
        assert [(type(m), m.score) for m in after] == [(ClassMatch, 0.9)]

        # The label triple's own A-edge, as the IndexManager applies it:
        # a new value under a term the entry consulted.
        index.adjust_attribute_occurrence(
            RDFS.label, Literal("Paper"), graph.types_of(EX.Publication), +1
        )
        assert index.cache_stats()["invalidated"] == 2
        after = index.lookup("publication")
        assert [repr(m) for m in after] == [
            repr(m) for m in KeywordIndex(graph).lookup("publication")
        ]

    def test_refresh_with_unchanged_label_bumps_version_touches_no_posting(self):
        graph = running_example_graph()
        index = KeywordIndex(graph)
        index.lookup("publication")
        index.lookup("author")
        rows, version = posting_rows(index), index.version
        terms_before = list(index._index.iter_terms())
        index.refresh_class(EX.Publication)
        index.refresh_relation_label(EX.author)
        assert index.version == version + 2
        assert posting_rows(index) == rows
        # Not even un- and re-posted: the vocabulary order did not move.
        assert list(index._index.iter_terms()) == terms_before
        assert index.cache_stats()["invalidated"] == 0
        assert index.cache_stats()["size"] == 2

    def test_refcount_two_to_one_keeps_the_entry_one_to_zero_drops_it(self):
        graph = running_example_graph()
        graph.add(Triple(EX.re3URI, RDF.type, EX.Researcher))
        graph.add(Triple(EX.re3URI, EX.name, Literal("AIFB")))
        index = KeywordIndex(graph)
        both = frozenset({(EX.name, EX.Institute), (EX.name, EX.Researcher)})
        (match,) = matches_of_type(index.lookup("aifb"), ValueMatch)
        assert match.occurrences == both

        # A second researcher named AIFB comes (1 -> 2) and goes (2 -> 1):
        # the key set of the value's occurrences never moves.
        researcher = frozenset({EX.Researcher})
        index.adjust_attribute_occurrence(EX.name, Literal("AIFB"), researcher, +1)
        index.adjust_attribute_occurrence(EX.name, Literal("AIFB"), researcher, -1)
        assert index.cache_stats()["invalidated"] == 0
        assert matches_of_type(index.lookup("aifb"), ValueMatch) == [match]
        assert index.cache_stats()["hits"] == 1

        # The last one goes (1 -> 0): the occurrence disappears with it.
        index.adjust_attribute_occurrence(EX.name, Literal("AIFB"), researcher, -1)
        assert index.cache_stats()["invalidated"] == 1
        (match,) = matches_of_type(index.lookup("aifb"), ValueMatch)
        assert match.occurrences == {(EX.name, EX.Institute)}

    def test_result_computed_before_an_invalidation_is_not_stored(self):
        memo = LookupMemo(4)
        generation = memo.generation
        # An update lands while it is computed.
        memo.invalidate([frozenset({"student"})], (), live)
        memo.put("student", ("stale",), [frozenset({"student"})], (), generation)
        assert memo.hit("student") is None
        assert links(memo) == 0

    def test_eviction_and_invalidation_unlink_their_dependencies(self):
        memo = LookupMemo(2)
        memo.put("a", (1,), [frozenset({"t1", "shared"})], (), memo.generation)
        memo.put("b", (2,), [frozenset({"t2", "shared"})], (), memo.generation)
        memo.put("c", (3,), [frozenset({"t3"})], (), memo.generation)  # evicts "a"
        assert memo.hit("a") is None
        assert links(memo) == 3
        memo.invalidate([frozenset({"t1"})], (), live)  # names nothing live any more
        assert memo.cache_stats()["invalidated"] == 0
        memo.invalidate([frozenset({"shared"})], (), live)
        assert memo.hit("b") is None and memo.hit("c") == (3,)
        assert memo.cache_stats()["invalidated"] == 1
        assert links(memo) == 1

    def test_lru_bound_respected(self, example_graph, monkeypatch):
        monkeypatch.setattr(keyword_index, "LOOKUP_CACHE_SIZE", 2)
        index = KeywordIndex(example_graph)
        index.lookup("publication")
        index.lookup("person")
        index.lookup("article")
        assert len(index._lookup_cache) == 2

    def test_settings_are_not_parameters(self, example_graph):
        for setting in (
            "fuzzy_max_distance", "max_matches_per_keyword", "lookup_cache_size"
        ):
            with pytest.raises(TypeError):
                KeywordIndex(example_graph, **{setting: 1})
