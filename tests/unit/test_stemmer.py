"""Unit tests for the Porter stemmer against known reference pairs."""

import pytest

from repro.keyword.stemmer import porter_stem


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
