"""Property: the fuzzy fallback's probe finds what a vocabulary walk finds.

A keyword term with no exact or lexicon match takes its candidates from
the vocabulary terms one edit away.  ``KeywordIndex`` finds them by
probing every deletion, substitution and insertion over
``TERM_ALPHABET``; the reference here is the walk it replaced — every
term ``iter_terms()`` yields, kept when ``levenshtein(t, v) <= 1`` and
``similarity(t, v) > 0``, each offered with that similarity as factor.  Everything after the
candidates (intersection, scores, the tie-break, the cutoff) is the
production code on both sides, so a difference is the probe's.

Vocabularies are random vowel-less words and numbers (Porter and the
stopword list leave such a word as it is, so a keyword edited from a
vocabulary term analyzes to the edited term), including one-letter
terms — ``b`` reaches the digit terms ``0``-``9`` — and keywords edited
at the first, middle and last position, plus terms with no neighbour
and terms longer than any the index holds.  The identity is checked on
a constructed index and on a loaded bundle after add/remove steps that
bring in delta-only terms and tombstone base ones; there, lookups go
through the memo, so a fuzzy entry that should have been dropped shows
up as a difference too.
"""

import pytest
from hypothesis import given, settings, strategies as st

from test_lookup_memo_invalidation import apply, describe

from repro.core.engine import KeywordSearchEngine
from repro.keyword.levenshtein import levenshtein, similarity
from repro.keyword.synonyms import DEFAULT_LEXICON
from repro.rdf.graph import DataGraph
from repro.rdf.namespace import RDF, Namespace
from repro.rdf.terms import Literal
from repro.rdf.triples import Triple
from repro.storage import build_bundle_streaming

N = Namespace("http://example.org/fuzzy/")

#: No vowel and no ``s``, ``t`` or ``y``: no Porter rule and no stopword
#: applies to a word spelt over these.
CONSONANTS = "bcdfghjklmnpqrvwxz"
DIGITS = "0123456789"

word = st.text(alphabet=CONSONANTS, min_size=1, max_size=6)
number = st.text(alphabet=DIGITS, min_size=1, max_size=4)
label = st.lists(st.one_of(word, number), min_size=1, max_size=3).map(" ".join)


def walked_candidates(index, term):
    """The reference ``_term_candidates``: exact and lexicon postings,
    else every vocabulary term within one edit, walked."""
    inverted = index._index
    out = {}

    def offer(vocabulary_term, factor):
        for posting in inverted.lookup(vocabulary_term):
            current = out.get(posting.element)
            if current is None or factor > current[0]:
                out[posting.element] = (factor, posting.label_terms)

    offer(term, 1.0)
    for related, factor in DEFAULT_LEXICON.related(term):
        offer(related, factor)
    if not out:
        for vocabulary_term in inverted.iter_terms():
            factor = similarity(term, vocabulary_term)
            if levenshtein(term, vocabulary_term) <= 1 and factor > 0:
                offer(vocabulary_term, factor)
    return out


def walked_lookup(index, keyword):
    """``lookup(keyword)`` as the walk computes it, memo bypassed."""
    probe = index._term_candidates
    index._term_candidates = lambda term, accepted, keys: walked_candidates(index, term)
    try:
        return index._lookup_uncached(keyword)
    finally:
        index._term_candidates = probe


def edits(term, char):
    """``term`` edited once at its first, middle and last position."""
    out = set()
    for i in {0, len(term) // 2, len(term) - 1}:
        out.add(term[:i] + term[i + 1 :])
        out.add(term[:i] + char + term[i + 1 :])
        out.add(term[:i] + char + term[i:])
    out.add(term + char)
    return {edited for edited in out if edited}


@st.composite
def corpus(draw):
    """Base labels, the labels a history may bring in, and keywords: the
    labels' terms edited once, one-letter terms, and terms with no
    neighbour — one too long for any term to reach."""
    base = draw(st.lists(label, min_size=1, max_size=12))
    extra = draw(st.lists(label, min_size=1, max_size=6))
    terms = sorted({t for text in base + extra for t in text.split()})
    keywords = set(terms[:12])
    for term in draw(st.lists(st.sampled_from(terms), max_size=8)):
        alphabet = DIGITS if term.isdigit() else CONSONANTS
        keywords |= edits(term, draw(st.sampled_from(alphabet)))
    keywords |= set(draw(st.lists(st.sampled_from(CONSONANTS + DIGITS), max_size=4)))
    keywords |= {"zzzzqqq", "q" * 12, "1234567890"}
    pairs = draw(st.lists(st.tuples(st.sampled_from(sorted(keywords)), st.sampled_from(terms)), max_size=3))
    keywords |= {f"{a} {b}" for a, b in pairs}
    history = draw(st.lists(st.tuples(st.booleans(), st.integers(0, 100)), max_size=6))
    return base, extra, sorted(keywords), history


def triples_of(labels, offset=0):
    return [
        triple
        for i, text in enumerate(labels, offset)
        for triple in (
            Triple(N[f"e{i}"], RDF.type, N.Kb),
            Triple(N[f"e{i}"], N.name, Literal(text)),
        )
    ]


def agree(index, keywords, where):
    for keyword in keywords:
        expected = describe(walked_lookup(index, keyword))
        assert describe(index.lookup(keyword)) == expected, (where, keyword)


@given(data=corpus())
@settings(max_examples=60, deadline=None)
def test_probe_equals_the_walk_on_a_constructed_index(data):
    base, extra, keywords, _ = data
    engine = KeywordSearchEngine(DataGraph(triples_of(base + extra)))
    agree(engine.keyword_index, keywords, "constructed")


@given(data=corpus())
@settings(max_examples=40, deadline=None)
def test_probe_equals_the_walk_on_a_loaded_bundle_across_updates(tmp_path_factory, data):
    base, extra, keywords, history = data
    base_triples = triples_of(base)
    pool = base_triples + triples_of(extra, offset=len(base))
    path = tmp_path_factory.mktemp("fuzzy") / "g.reprobundle"
    build_bundle_streaming(iter(base_triples), path)
    engine = KeywordSearchEngine.load(path, attach_wal=False)
    agree(engine.keyword_index, keywords, "base")
    for step, (add, pick) in enumerate(history):
        triple = pool[pick % len(pool)]
        apply(engine, add, triple)
        agree(engine.keyword_index, keywords, (step, add, triple))


def test_one_letter_term_reaches_the_digit_terms():
    """``b`` is one substitution from every one-digit term and from ``c``,
    and one insertion from ``bk``: only the insertion shares a character
    with it, so only ``bk`` matches."""
    labels = [*DIGITS, "c", "bk", "kk"]
    engine = KeywordSearchEngine(DataGraph(triples_of(labels)))
    index = engine.keyword_index
    matched = {m.value.lexical for m in index.lookup("b") if hasattr(m, "value")}
    assert matched == {"bk"}
    assert describe(index.lookup("b")) == describe(walked_lookup(index, "b"))


@pytest.mark.parametrize("loaded", [False, True], ids=["constructed", "loaded"])
def test_a_neighbour_sharing_no_character_is_no_match(lubm_small, tmp_path, loaded):
    """Two different one-letter terms are 0 similar.  On LUBM, ``b`` and
    ``j`` have no posting of their own and reach the one-letter terms
    (``0``-``9``, ``u``, ``d``) by substitution only: they keep no match,
    none scored 0 and none floored to 1e-6.  A neighbour that shares a
    character — the insertion ``bk`` of ``b`` — still matches."""
    bk = Triple(N["bk"], N["label"], Literal("bk"))
    engine = KeywordSearchEngine(DataGraph([*lubm_small.triples, bk]))
    if loaded:
        path = str(tmp_path / "lubm.reprobundle")
        engine.save(path)
        engine = KeywordSearchEngine.load(path, attach_wal=False)
    index = engine.keyword_index
    assert index.lookup("j") == []
    (match,) = index.lookup("b")
    assert match.value.lexical == "bk" and match.score > 0.1
