"""Unit tests for the Levenshtein distance and similarity."""

import pytest

from repro.keyword.levenshtein import levenshtein, similarity


@pytest.mark.parametrize(
    "a,b,d",
    [
        ("", "", 0),
        ("a", "", 1),
        ("", "abc", 3),
        ("kitten", "sitting", 3),
        ("flaw", "lawn", 2),
        ("cimiano", "cimiano", 0),
        ("cimiano", "cimano", 1),
        ("icde", "icdt", 1),
        ("abc", "cba", 2),
        ("book", "back", 2),
    ],
)
def test_known_distances(a, b, d):
    assert levenshtein(a, b) == d
    assert levenshtein(b, a) == d  # symmetric


def test_similarity_identical():
    assert similarity("graph", "graph") == 1.0


def test_similarity_empty_strings():
    assert similarity("", "") == 1.0


def test_similarity_range():
    s = similarity("cimiano", "cimano")
    assert 0.0 < s < 1.0
    assert s == pytest.approx(1 - 1 / 7)


def test_similarity_disjoint():
    assert similarity("ab", "xy") == 0.0
