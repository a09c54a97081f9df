"""Unit tests for lexical analysis."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.keyword.analysis import (
    DEFAULT_ANALYZER,
    TERM_ALPHABET,
    Analyzer,
    STOPWORDS,
    tokenize,
)


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


#: Characters a naive ``isalnum`` / ``lower`` chain would let through or
#: fold into ASCII: fullwidth digits, sharp s, dotted capital I (whose
#: lowercase is "i" plus a combining dot), the Kelvin sign (whose
#: lowercase is "k"), combining marks, and non-Latin letters and digits.
_AWKWARD = "ß\u0130\u212a\uff11\uff21\u0301\u0308é\u00c5\u03a3\u0661\u0416ﬁ"


@given(st.text(alphabet=st.one_of(st.characters(), st.sampled_from(_AWKWARD))))
@settings(max_examples=300)
def test_every_term_is_spelt_over_the_term_alphabet(text):
    """The fuzzy fallback probes one-edit neighbours over TERM_ALPHABET
    alone; it finds every vocabulary neighbour only because no analyzed
    term holds another character — and a term is all letters or all
    digits, as the identifier split leaves it."""
    for term in DEFAULT_ANALYZER.analyze(text):
        assert term and set(term) <= set(TERM_ALPHABET), term
        assert term.isdigit() or term.isalpha(), term


def test_awkward_characters_split_tokens_and_fold_to_nothing():
    assert DEFAULT_ANALYZER.analyze(
        "stra\u00dfe \u0130stanbul \u212aelvin \uff11\uff12 cafe\u0301"
    ) == ["stra", "e", "stanbul", "elvin", "cafe"]
