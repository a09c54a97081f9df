"""Unit tests for lexical analysis."""

import pytest

from repro.keyword.analysis import Analyzer, STOPWORDS, tokenize


class TestTokenize:
    def test_lowercase_words(self):
        assert tokenize("Keyword Search") == ["keyword", "search"]

    def test_camel_case_split(self):
        assert tokenize("worksAt") == ["works", "at"]
        assert tokenize("hasProject") == ["has", "project"]

    def test_letter_digit_boundary(self):
        assert tokenize("year2006") == ["year", "2006"]
        assert tokenize("2006year") == ["2006", "year"]

    def test_punctuation_separates(self):
        assert tokenize("X-Media") == ["x", "media"]
        assert tokenize("P. Cimiano") == ["p", "cimiano"]

    def test_pure_numbers_kept(self):
        assert tokenize("2006") == ["2006"]

    def test_empty(self):
        assert tokenize("") == []
        assert tokenize("   --- ") == []


class TestAnalyzer:
    def test_stopwords_removed(self):
        analyzer = Analyzer()
        assert analyzer.analyze("the search of graphs") == [
            "search",
            "graph",
        ]

    def test_stemming_applied(self):
        analyzer = Analyzer()
        assert analyzer.analyze("publications") == analyzer.analyze("publication")

    def test_digits_not_stemmed(self):
        analyzer = Analyzer()
        assert analyzer.analyze("2006") == ["2006"]

    def test_takes_no_settings(self):
        for setting in ("stem", "stopwords", "min_token_length"):
            with pytest.raises(TypeError):
                Analyzer(**{setting: None})

    def test_analyze_unique_preserves_order(self):
        analyzer = Analyzer()
        assert analyzer.analyze_unique("graph graph search graph") == [
            "graph",
            "search",
        ]

    def test_stopword_list_is_lowercase(self):
        assert all(w == w.lower() for w in STOPWORDS)
