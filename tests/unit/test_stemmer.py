"""Unit tests for the Porter stemmer against known reference pairs."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.keyword.analysis import DEFAULT_ANALYZER
from repro.keyword.stemmer import _consonants, porter_stem


# Reference pairs from Porter's original paper / the canonical test set.
@pytest.mark.parametrize(
    "word,stem",
    [
        ("caresses", "caress"),
        ("ponies", "poni"),
        ("ties", "ti"),
        ("caress", "caress"),
        ("cats", "cat"),
        ("feed", "feed"),
        ("agreed", "agre"),
        ("plastered", "plaster"),
        ("bled", "bled"),
        ("motoring", "motor"),
        ("sing", "sing"),
        ("conflated", "conflat"),
        ("troubled", "troubl"),
        ("sized", "size"),
        ("hopping", "hop"),
        ("tanned", "tan"),
        ("falling", "fall"),
        ("hissing", "hiss"),
        ("fizzed", "fizz"),
        ("failing", "fail"),
        ("filing", "file"),
        ("happy", "happi"),
        ("sky", "sky"),
        ("relational", "relat"),
        ("conditional", "condit"),
        ("rational", "ration"),
        ("valenci", "valenc"),
        ("hesitanci", "hesit"),
        ("digitizer", "digit"),
        ("conformabli", "conform"),
        ("radicalli", "radic"),
        ("differentli", "differ"),
        ("vileli", "vile"),
        ("analogousli", "analog"),
        ("vietnamization", "vietnam"),
        ("predication", "predic"),
        ("operator", "oper"),
        ("feudalism", "feudal"),
        ("decisiveness", "decis"),
        ("hopefulness", "hope"),
        ("callousness", "callous"),
        ("formaliti", "formal"),
        ("sensitiviti", "sensit"),
        ("sensibiliti", "sensibl"),
        ("triplicate", "triplic"),
        ("formative", "form"),
        ("formalize", "formal"),
        ("electriciti", "electr"),
        ("electrical", "electr"),
        ("hopeful", "hope"),
        ("goodness", "good"),
        ("revival", "reviv"),
        ("allowance", "allow"),
        ("inference", "infer"),
        ("airliner", "airlin"),
        ("gyroscopic", "gyroscop"),
        ("adjustable", "adjust"),
        ("defensible", "defens"),
        ("irritant", "irrit"),
        ("replacement", "replac"),
        ("adjustment", "adjust"),
        ("dependent", "depend"),
        ("adoption", "adopt"),
        ("homologou", "homolog"),
        ("communism", "commun"),
        ("activate", "activ"),
        ("angulariti", "angular"),
        ("homologous", "homolog"),
        ("effective", "effect"),
        ("bowdlerize", "bowdler"),
        ("probate", "probat"),
        ("rate", "rate"),
        ("cease", "ceas"),
        ("controll", "control"),
        ("roll", "roll"),
    ],
)
def test_reference_pairs(word, stem):
    assert porter_stem(word) == stem


def test_domain_vocabulary():
    assert porter_stem("publications") == porter_stem("publication")
    assert porter_stem("databases") == porter_stem("database")
    assert porter_stem("queries") == porter_stem("query")
    assert porter_stem("algorithms") == porter_stem("algorithm")


def test_short_words_unchanged():
    assert porter_stem("as") == "as"
    assert porter_stem("is") == "is"


def test_lowercases_input():
    assert porter_stem("Publications") == porter_stem("publications")


def test_idempotent_on_common_words():
    for word in ("database", "searching", "ranking", "indexes", "semantic"):
        once = porter_stem(word)
        assert porter_stem(once) == porter_stem(once)


def test_memoized_stems_equal_the_algorithm():
    """``porter_stem`` is memoized (bounded: query-time analysis calls it
    too); a remembered stem is the computed one, before and after the
    memo wraps around."""
    from repro.keyword.stemmer import STEM_CACHE_SIZE

    compute = porter_stem.__wrapped__
    words = [pair[0] for pair in test_reference_pairs.pytestmark[0].args[1]]
    words += ["Publications", "as", "queries", "databases"]
    assert porter_stem.cache_info().maxsize == STEM_CACHE_SIZE
    for _ in range(2):
        for word in words:
            assert porter_stem(word) == compute(word)
    assert porter_stem.cache_info().hits >= len(words)
    for i in range(STEM_CACHE_SIZE + 10):
        porter_stem(f"filler{i}ing")
    assert porter_stem.cache_info().currsize == STEM_CACHE_SIZE
    for word in words:
        assert porter_stem(word) == compute(word)


def _is_consonant(word, i):
    """Porter's definition, letter by letter: a ``y`` is a consonant at
    the start of the word or after a vowel."""
    if word[i] in "aeiou":
        return False
    if word[i] == "y":
        return i == 0 or not _is_consonant(word, i - 1)
    return True


@given(st.text(alphabet="aeiouybcdlrst", max_size=30))
@settings(max_examples=300, deadline=None)
def test_consonant_mask_is_the_letter_by_letter_definition(word):
    assert _consonants(word) == [_is_consonant(word, i) for i in range(len(word))]


@pytest.mark.parametrize(
    "prefix, prefix_mask, length, first",
    [
        ("", [], 1000, True),
        ("", [], 5001, True),
        ("a", [False], 5000, True),
        ("b", [True], 5000, False),
    ],
    ids=["start-even", "start-odd", "after-vowel", "after-consonant"],
)
def test_a_long_run_of_y_alternates(prefix, prefix_mask, length, first):
    """A ``y`` at the start or after a vowel is a consonant, after a
    consonant a vowel: a run alternates from its first verdict on, at any
    length."""
    run = [first if i % 2 == 0 else not first for i in range(length)]
    assert _consonants(prefix + "y" * length) == prefix_mask + run


def test_a_long_run_of_y_is_analyzed():
    """A run of ``y`` alternates consonant and vowel; the mask reads it in
    one pass, where the letter-by-letter definition recursed once per
    ``y`` and a few thousand of them raised ``RecursionError``."""
    assert DEFAULT_ANALYZER.analyze("y" * 5000) == ["y" * 4999 + "i"]
    # -ing goes, the double consonant ``yy`` (even positions) loses one.
    assert DEFAULT_ANALYZER.analyze("b" + "y" * 5000 + "ing") == ["b" + "y" * 4998 + "i"]
