"""Property tests for the Levenshtein implementation."""

from hypothesis import given, settings, strategies as st

from repro.keyword.levenshtein import levenshtein, similarity

words = st.text(alphabet="abcdef", max_size=12)


@given(words, words)
@settings(max_examples=200)
def test_symmetry(a, b):
    assert levenshtein(a, b) == levenshtein(b, a)


@given(words)
def test_identity(a):
    assert levenshtein(a, a) == 0


@given(words, words)
def test_upper_bound_max_length(a, b):
    assert levenshtein(a, b) <= max(len(a), len(b))


@given(words, words)
def test_lower_bound_length_difference(a, b):
    assert levenshtein(a, b) >= abs(len(a) - len(b))


@given(words, words, words)
@settings(max_examples=100)
def test_triangle_inequality(a, b, c):
    assert levenshtein(a, c) <= levenshtein(a, b) + levenshtein(b, c)


@given(words, st.text(alphabet="abcdef", min_size=1, max_size=3), st.integers(0, 11))
def test_single_insertion_costs_one(a, insert, pos):
    pos = min(pos, len(a))
    b = a[:pos] + insert[0] + a[pos:]
    assert levenshtein(a, b) == 1


@given(words, words)
def test_similarity_in_unit_interval(a, b):
    s = similarity(a, b)
    assert 0.0 <= s <= 1.0


@given(words)
def test_similarity_identity(a):
    assert similarity(a, a) == 1.0
