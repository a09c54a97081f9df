"""Unit tests for the FILTER extension (the paper's Section IX future work)."""

import pytest

from repro.query.conjunctive import Atom, ConjunctiveQuery
from repro.query.evaluator import QueryEvaluator
from repro.query.filters import (
    Filter,
    FilteredQuery,
    bind_filters,
    parse_filter_keyword,
    split_filter_keywords,
)
from repro.rdf.namespace import XSD, Namespace
from repro.rdf.terms import Literal, URI, Variable
from repro.rdf.triples import Triple
from repro.store.triple_store import TripleStore

EX = Namespace("http://t/")
x, y = Variable("x"), Variable("y")


class TestFilter:
    @pytest.mark.parametrize(
        "op,value,term,expected",
        [
            ("<", "2005", "2004", True),
            ("<", "2005", "2005", False),
            ("<=", "2005", "2005", True),
            (">", "2000", "2001", True),
            (">", "2000", "2000", False),
            (">=", "2000", "2000", True),
            ("!=", "2000", "2001", True),
            ("!=", "2000", "2000", False),
        ],
    )
    def test_comparisons(self, op, value, term, expected):
        f = Filter(x, op, Literal(value))
        assert f.accepts(Literal(term)) is expected

    def test_numeric_comparison_not_lexicographic(self):
        f = Filter(x, "<", Literal("1000"))
        assert f.accepts(Literal("999"))  # "999" > "1000" lexicographically

    def test_text_comparison(self):
        f = Filter(x, "<", Literal("m"))
        assert f.accepts(Literal("alpha"))
        assert not f.accepts(Literal("zulu"))

    def test_typed_number_compares_by_value(self):
        # The datatype is not read: the lexical form decides.
        assert Filter(x, ">", Literal("9")).accepts(Literal("42", datatype=XSD.integer))
        assert not Filter(x, "!=", Literal("1.50")).accepts(
            Literal("1.5", datatype=XSD.double)
        )

    def test_numbers_sort_before_text(self):
        assert Filter(x, "<", Literal("abc")).accepts(Literal("42"))
        assert Filter(x, ">", Literal("1e9")).accepts(Literal("true", datatype=XSD.boolean))

    def test_non_literal_compares_by_its_string(self):
        f = Filter(x, "range", Literal("http://t/a"), Literal("http://t/m"))
        assert f.accepts(EX.b)
        assert not f.accepts(EX.z)

    def test_range(self):
        f = Filter(x, "range", Literal("2000"), Literal("2005"))
        assert f.accepts(Literal("2000"))
        assert f.accepts(Literal("2003"))
        assert f.accepts(Literal("2005"))
        assert not f.accepts(Literal("2006"))
        assert not f.accepts(Literal("1999"))

    def test_range_requires_upper(self):
        with pytest.raises(ValueError):
            Filter(x, "range", Literal("1"))

    def test_unknown_op(self):
        with pytest.raises(ValueError):
            Filter(x, "~", Literal("1"))

    def test_sparql_rendering(self):
        assert Filter(x, "<", Literal("2005")).to_sparql() == 'FILTER(?x < "2005")'
        range_clause = Filter(x, "range", Literal("1"), Literal("2")).to_sparql()
        assert ">=" in range_clause and "<=" in range_clause


class TestFilteredQuery:
    def make(self):
        store = TripleStore(
            [
                Triple(EX.a, EX.year, Literal("2001")),
                Triple(EX.b, EX.year, Literal("2004")),
                Triple(EX.c, EX.year, Literal("2008")),
            ]
        )
        query = ConjunctiveQuery([Atom(EX.year, x, y)])
        return store, query

    def test_evaluate_applies_filters(self):
        store, query = self.make()
        fq = FilteredQuery(query, [Filter(y, "<", Literal("2005"))])
        answers = fq.evaluate(QueryEvaluator(store))
        subjects = {a[x] for a in answers}
        assert subjects == {EX.a, EX.b}

    def test_evaluate_with_limit(self):
        store, query = self.make()
        fq = FilteredQuery(query, [Filter(y, ">", Literal("2000"))])
        assert len(fq.evaluate(QueryEvaluator(store), limit=2)) == 2
        assert fq.evaluate(QueryEvaluator(store), limit=0) == []

    def test_no_filters_passthrough(self):
        store, query = self.make()
        fq = FilteredQuery(query, [])
        assert len(fq.evaluate(QueryEvaluator(store))) == 3

    def test_unknown_filter_variable_rejected(self):
        _, query = self.make()
        with pytest.raises(ValueError):
            FilteredQuery(query, [Filter(Variable("nope"), "<", Literal("1"))])

    def test_sparql_contains_filter_clause(self):
        _, query = self.make()
        fq = FilteredQuery(query, [Filter(y, "<", Literal("2005"))])
        sparql = fq.to_sparql()
        assert "FILTER(?y <" in sparql
        assert sparql.rstrip().endswith("}")


class TestParseFilterKeyword:
    @pytest.mark.parametrize(
        "text,op,value",
        [
            ("before 2005", "<", "2005"),
            ("until 2005", "<=", "2005"),
            ("after 2000", ">", "2000"),
            ("since 2000", ">=", "2000"),
            ("under 300", "<", "300"),
            ("over 10", ">", "10"),
            ("not 2003", "!=", "2003"),
            ("BEFORE 2005", "<", "2005"),
            ("not P. Cimiano", "!=", "P. Cimiano"),
            ("NOT P. Cimiano", "!=", "P. Cimiano"),
        ],
    )
    def test_comparison_words(self, text, op, value):
        fk = parse_filter_keyword(text)
        assert fk is not None
        assert fk.op == op
        assert fk.value == Literal(value)

    @pytest.mark.parametrize(
        "text", ["2000-2005", "2000..2005", "2000 to 2005", "2000 TO 2005"]
    )
    def test_range_syntaxes(self, text):
        fk = parse_filter_keyword(text)
        assert fk.op == "range"
        assert (fk.value.lexical, fk.upper.lexical) == ("2000", "2005")

    def test_reversed_range_normalized(self):
        fk = parse_filter_keyword("2005-2000")
        assert (fk.value.lexical, fk.upper.lexical) == ("2000", "2005")

    @pytest.mark.parametrize("text", ["cimiano", "2005", "before", "soon 2005"])
    def test_non_filters(self, text):
        assert parse_filter_keyword(text) is None

    def test_bind(self):
        fk = parse_filter_keyword("before 2005")
        f = fk.bind(x)
        assert f.variable == x and f.op == "<"


class TestSplitFilterKeywords:
    def test_bare_comparison_word_merges_with_next_keyword(self):
        plain, filters = split_filter_keywords(["cimiano", "Before", "2005", "aifb"])
        assert plain == ["cimiano", "aifb"]
        assert [(f.op, f.value, f.source) for f in filters] == [
            ("<", Literal("2005"), "Before 2005")
        ]

    def test_trailing_comparison_word_stays_plain(self):
        assert split_filter_keywords(["cimiano", "before"]) == (["cimiano", "before"], [])

    def test_quoted_operator_and_range(self):
        plain, filters = split_filter_keywords(["researcher", "since 2000", "1990-1995"])
        assert plain == ["researcher"]
        assert [f.op for f in filters] == [">=", "range"]


class TestBindFilters:
    def test_prefers_a_variable_value(self):
        query = ConjunctiveQuery(
            [Atom(EX.year, x, Literal("2004")), Atom(EX.year, x, y)]
        )
        bound = bind_filters(query, [parse_filter_keyword("before 2005")], [{EX.year}])
        assert bound.filters == (Filter(y, "<", Literal("2005")),)
        assert bound.query == query

    def test_generalizes_a_pinned_constant(self):
        query = ConjunctiveQuery([Atom(EX.year, x, Literal("2004"))])
        bound = bind_filters(query, [parse_filter_keyword("before 2005")], [{EX.year}])
        fresh = Variable("f1")
        assert bound.query == ConjunctiveQuery([Atom(EX.year, x, fresh)])
        assert bound.filters == (Filter(fresh, "<", Literal("2005")),)

    def test_unbindable_filter_drops_the_query(self):
        query = ConjunctiveQuery([Atom(EX.name, x, y)])
        assert bind_filters(query, [parse_filter_keyword("before 2005")], [{EX.year}]) is None


class TestEngineFilters:
    @pytest.fixture(scope="class")
    def engine(self):
        from repro.core.engine import KeywordSearchEngine
        from repro.datasets import DblpConfig, generate_dblp

        return KeywordSearchEngine(
            generate_dblp(DblpConfig(publications=300)), cost_model="c3", k=8
        )

    def test_filter_keyword_becomes_filter(self, engine):
        filtered = engine.search_with_filters("cimiano before 2005", k=8)
        assert filtered
        top = filtered[0]
        assert len(top.filters) == 1
        assert top.filters[0].op == "<"
        # The filtered variable appears in a year atom.
        from repro.datasets.dblp import DBLP

        year_atoms = [a for a in top.query.atoms if a.predicate == DBLP.year]
        assert year_atoms
        assert year_atoms[0].arg2 == top.filters[0].variable

    def test_answers_satisfy_filter(self, engine):
        filtered = engine.search_with_filters("turing since 2000", k=8)
        found_any = False
        for fq in filtered[:3]:
            for answer in fq.evaluate(engine.evaluator, limit=10):
                found_any = True
                for f in fq.filters:
                    assert f.accepts(answer.as_dict()[f.variable])
        assert found_any

    def test_range_filter(self, engine):
        filtered = engine.search_with_filters("cimiano 2000-2006", k=8)
        assert filtered
        assert filtered[0].filters[0].op == "range"

    def test_out_of_data_operand_uses_kind_fallback(self, engine):
        filtered = engine.search_with_filters("cimiano before 2050", k=8)
        assert filtered  # 2050 has no V-vertex; numeric-kind fallback applies

    def test_loaded_bundle_filters_without_materialising_the_graph(
        self, engine, tmp_path, monkeypatch
    ):
        """The kind fallback samples one row per attribute through the
        store: on a loaded bundle the data graph is never enumerated, and
        the queries are the in-process engine's."""
        from repro.core.engine import KeywordSearchEngine
        from repro.storage.graph_view import MmapDataGraph

        path = tmp_path / "dblp.reprobundle"
        engine.save(path)
        loaded = KeywordSearchEngine.load(path, attach_wal=False)

        def unread(graph):
            raise AssertionError("the data graph was enumerated")

        monkeypatch.setattr(MmapDataGraph, "__iter__", unread)
        for query in ("cimiano before 2050", "cimiano before 2005", "turing since 2000"):
            expected = [repr(fq) for fq in engine.search_with_filters(query, k=8)]
            assert expected
            assert [repr(fq) for fq in loaded.search_with_filters(query, k=8)] == expected

    def test_negated_operand_keeps_its_case(self, example_graph):
        """``not P. Cimiano`` filters out P. Cimiano: the operand the
        evaluation compares is the one ``to_sparql`` prints."""
        from repro.core.engine import KeywordSearchEngine

        engine = KeywordSearchEngine(example_graph, k=5)
        top = engine.search_with_filters('researcher "not P. Cimiano"')[0]
        assert top.filters[0].value == Literal("P. Cimiano")
        variable = top.filters[0].variable
        assert f'FILTER({variable} != "P. Cimiano")' in top.to_sparql()
        names = {
            example_graph.label_of(answer.as_dict()[variable])
            for answer in top.evaluate(engine.evaluator)
        }
        assert names and "P. Cimiano" not in names

    def test_requires_plain_keyword(self, engine):
        with pytest.raises(ValueError):
            engine.search_with_filters("before 2005")

    def test_plain_search_unaffected(self, engine):
        # No filter words: behaves exactly like search().
        filtered = engine.search_with_filters("cimiano publications", k=5)
        plain = engine.search("cimiano publications", k=5)
        assert len(filtered) == len(plain.candidates)
        assert all(not fq.filters for fq in filtered)
