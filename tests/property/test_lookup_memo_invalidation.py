"""The keyword-lookup memo against recomputation, after every update step.

``KeywordIndex.lookup`` serves memoized match lists across update epochs:
an entry is dropped only when maintenance changed a posting list or a
class context its result was computed from.  The ground truth is
``_lookup_uncached`` on the same index at the same moment.  After every
step of an add/remove history, for a keyword pool that covers exact,
lexicon-related, fuzzy, multi-term and no-match keywords, the memoized
list must equal the recomputed one — scores, order, and the class
contexts the matches carry (which ``repr`` does not show) — on an
in-process engine and on the same triples served from a bundle.

Random histories draw from a triple pool built so that the hazards are
reachable; a scripted history walks each hazard by name and also pins
what must *survive*, so that a memo which simply forgot everything on
every update could not pass.

Pure Python on purpose: this suite must run, not skip, where numpy does
not exist.
"""

import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.engine import KeywordSearchEngine
from repro.keyword import keyword_index
from repro.keyword.keyword_index import AttributeMatch, KeywordIndex, ValueMatch
from repro.rdf.graph import DataGraph
from repro.rdf.namespace import LABEL_PREDICATES, RDF, RDFS, Namespace
from repro.rdf.terms import Literal
from repro.rdf.triples import Triple
from repro.storage import build_bundle_streaming

N = Namespace("http://example.org/memo/")
CLASSES = [N.Student, N.GraduateStudent, N.Professor, N.Course]
ENTITIES = [N.e0, N.e1, N.e2, N.e3]
VALUES = [
    Literal(text)
    for text in (
        "Alice",
        "student council",
        "Course Notes",
        "paper",  # publication ~ paper in the lexicon
        "pupil",  # student ~ pupil
        "studet",  # one edit from the misspelt keyword "studnt"
        "graduate student handbook",
    )
]
LABELS = [
    Triple(N.Student, RDFS.label, Literal("Pupil")),
    Triple(N.Course, RDFS.label, Literal("Lecture")),
    Triple(N.Professor, RDFS.label, Literal("Professor")),  # relabel to itself
]

KEYWORDS = (
    "student",  # exact; consults pupil and person too
    "course",
    "professor",
    "pupil",  # matches through the lexicon until something is named so
    "publication",  # only ever matches through the lexicon
    "lecture",
    "studnt",  # fuzzy: no such term, "student" is one edit away
    "profesor",
    "graduate student",  # multi-term, intersected
    "student council",
    "alice",  # a value: carries its (attribute, class) occurrences
    "name",  # an attribute: carries its subject classes
    "advisor",  # a relation
    "zzzqqq",  # no match, not even a fuzzy one
    "the",  # analyzes to nothing
)

assert RDFS.label in LABEL_PREDICATES

POOL = (
    [Triple(e, RDF.type, c) for e in ENTITIES for c in CLASSES]
    + [Triple(e, p, v) for e in ENTITIES for p in (N.name, N.title) for v in VALUES]
    + [Triple(a, N.advisor, b) for a in ENTITIES for b in ENTITIES if a != b]
    + LABELS
)

pool_triple = st.sampled_from(POOL)


@st.composite
def base_and_history(draw):
    """A base graph and single-triple steps that keep returning to its
    triples: removing one can take a value's last occurrence away,
    re-adding it brings the value back."""
    base = draw(st.lists(pool_triple, min_size=1, max_size=14, unique=True))
    touched = st.one_of(pool_triple, st.sampled_from(base))
    return base, draw(st.lists(st.tuples(st.booleans(), touched), max_size=8))


def describe(matches):
    """Everything a match list says, including what ``repr`` leaves out."""
    out = []
    for m in matches:
        context = None
        if isinstance(m, AttributeMatch):
            context = m.classes
        elif isinstance(m, ValueMatch):
            context = m.occurrences
        out.append((repr(m), m.element_key, m.score, context))
    return out


def both_engines(base, tmp_path_factory):
    """An in-process engine, and the same triples served from a bundle."""
    path = tmp_path_factory.mktemp("lookup-memo") / "g.reprobundle"
    build_bundle_streaming(iter(base), path)
    return {
        "in-process": KeywordSearchEngine(DataGraph(base)),
        "mmap": KeywordSearchEngine.load(path, attach_wal=False),
    }


def check(engine, where):
    """Every keyword, served through the memo, is what recomputation says
    — and stays so when served a second time (now certainly a hit)."""
    index = engine.keyword_index
    for keyword in KEYWORDS:
        expected = describe(index._lookup_uncached(keyword))
        assert describe(index.lookup(keyword)) == expected, (where, keyword)
        assert describe(index.lookup(keyword)) == expected, (where, keyword)


def apply(engine, add, triple):
    if add:
        engine.add_triples([triple])
    else:
        engine.remove_triples([triple])


@given(graph=base_and_history())
@settings(max_examples=100, deadline=None)
def test_memoized_lookup_equals_recomputation(tmp_path_factory, graph):
    base, history = graph
    engines = both_engines(base, tmp_path_factory)
    assert engines["mmap"].keyword_index.index_tier == "mmap"
    for name, engine in engines.items():
        check(engine, (name, "base"))
        for step, (add, triple) in enumerate(history):
            version = engine.keyword_index.version
            changed = (triple in engine.graph) != add
            apply(engine, add, triple)
            # The snapshot key moves with every applied batch, memo or no memo.
            assert (engine.keyword_index.version > version) == changed
            check(engine, (name, step, add, triple))


# ----------------------------------------------------------------------
# Scripted history: one hazard per step, and what must survive it
# ----------------------------------------------------------------------

SCRIPT_BASE = [
    Triple(N.e0, RDF.type, N.Student),
    Triple(N.e0, N.name, Literal("Alice")),
    Triple(N.e0, N.advisor, N.e1),
    Triple(N.e1, RDF.type, N.Professor),
    Triple(N.e1, N.name, Literal("Bob Stone")),
    Triple(N.e2, RDF.type, N.Course),
    Triple(N.e2, N.title, Literal("Course Notes")),
    Triple(N.e3, RDF.type, N.GraduateStudent),
    Triple(N.e3, N.name, Literal("student council")),
]


def memo_stats(engine):
    stats = engine.keyword_index.cache_stats()
    return stats["hits"], stats["misses"], stats["invalidated"]


def served_from_memo(engine, keyword):
    """True when ``lookup(keyword)`` is a hit right now."""
    hits, misses, _ = memo_stats(engine)
    engine.keyword_index.lookup(keyword)
    return memo_stats(engine)[:2] == (hits + 1, misses)


@pytest.mark.parametrize("tier", ["in-process", "mmap"])
def test_named_hazards(tmp_path_factory, monkeypatch, tier):
    engine = both_engines(SCRIPT_BASE, tmp_path_factory)[tier]
    index = engine.keyword_index
    check(engine, "base")

    def occurrences(keyword):
        (match,) = [m for m in index.lookup(keyword) if isinstance(m, ValueMatch)]
        return match.occurrences

    # A class relabelled through a LABEL_PREDICATES triple: Course is now
    # posted under "lectur", so "course" finds it through the lexicon only.
    engine.add_triples([Triple(N.Course, RDFS.label, Literal("Lecture"))])
    assert served_from_memo(engine, "alice")
    assert not served_from_memo(engine, "course")
    assert not served_from_memo(engine, "lecture")
    check(engine, "relabel")
    assert [
        m.score for m in index.lookup("course") if m.element_key[0] == "class"
    ] == [0.9]

    # A subject retyped while it carries attribute values: no posting of
    # "alic" or "name" moves, the class contexts of both matches do.
    assert occurrences("alice") == {(N.name, N.Student)}
    engine.add_triples([Triple(N.e0, RDF.type, N.Professor)])
    assert not served_from_memo(engine, "alice")
    check(engine, "second type")
    assert occurrences("alice") == {(N.name, N.Student), (N.name, N.Professor)}
    engine.remove_triples([Triple(N.e0, RDF.type, N.Student)])
    check(engine, "first type gone")
    assert occurrences("alice") == {(N.name, N.Professor)}
    assert served_from_memo(engine, "advisor")

    # A value's last occurrence removed, then re-added.
    engine.remove_triples([Triple(N.e0, N.name, Literal("Alice"))])
    check(engine, "value gone")
    assert index.lookup("alice") == []
    engine.add_triples([Triple(N.e0, N.name, Literal("Alice"))])
    check(engine, "value back")
    assert occurrences("alice") == {(N.name, N.Professor)}

    # A new term one edit away from a fuzzy keyword: "studnt" read no
    # term that changed, but "studet" shares its deletion key "studt".
    before = describe(index.lookup("studnt"))
    assert before  # fuzzy-matched "student"
    engine.add_triples([Triple(N.e1, N.title, Literal("studet"))])
    check(engine, "near miss")
    assert len(index.lookup("studnt")) == len(before) + 1
    assert served_from_memo(engine, "professor")  # an exact entry is not so broad

    # A term more than one character longer than any the index holds has
    # no neighbour: its lookup reads its own posting list, probes nothing
    # and is not memoized.  One character shorter, it probes its
    # neighbourhood.
    inverted = index._index
    calls = []
    for name in ("lookup", "__contains__"):
        method = getattr(type(inverted), name)
        monkeypatch.setattr(
            type(inverted),
            name,
            lambda self, term, _method=method: calls.append(term) or _method(self, term),
        )
    longest = inverted.max_term_length
    too_long = "x" * (longest + 2)
    assert index.lookup(too_long) == [] and calls == [too_long]
    index.lookup("x" * (longest + 1))
    assert len(calls) > 36 * longest
    monkeypatch.undo()
    assert not served_from_memo(engine, too_long)

    # Labels two or more edits away from every fuzzy keyword: the fuzzy
    # and no-match entries stay.
    quantum = Triple(N.e2, N.title, Literal("Quantum Harmonics"))
    engine.add_triples([quantum])
    for keyword in ("studnt", "zzzqqq"):
        assert served_from_memo(engine, keyword), keyword
    check(engine, "far away")
    engine.remove_triples([quantum])
    # A label term one deletion away from the once too-long keyword: now
    # within reach, it is probed, found and memoized, and the label's
    # removal drops it.
    near = Triple(N.e2, N.title, Literal("x" * (longest + 1)))
    engine.add_triples([near])
    assert [m.score for m in index.lookup(too_long)] == [1 - 1 / (longest + 2)]
    assert served_from_memo(engine, too_long)
    engine.remove_triples([near])
    assert not served_from_memo(engine, too_long)
    check(engine, "too long")

    # A multi-term keyword whose fuzzy term gains its first posting, or
    # whose fuzzy term's lexicon relative does ("film" ~ "movi"), on an
    # element outside the intersection: the fallback no longer runs, so
    # the answer moves although the intersection did not.
    filmy = Triple(N.e2, N.title, Literal("filmy council"))
    engine.add_triples([filmy])
    keyword = "film council"
    for gained in ("film", "movie"):
        assert index.lookup(keyword)  # "film" reaches "filmi", one edit away
        assert served_from_memo(engine, keyword)
        triple = Triple(N.e1, N.title, Literal(gained))
        engine.add_triples([triple])
        assert not served_from_memo(engine, keyword), gained
        assert index.lookup(keyword) == []
        check(engine, ("first posting", gained))
        engine.remove_triples([triple])
        assert not served_from_memo(engine, keyword), gained
        check(engine, ("last posting gone", gained))
    engine.remove_triples([filmy])
    check(engine, "filmy gone")

    # A no-op refresh: a new instance refreshes its class, whose label did
    # not move — nothing at all is invalidated, every keyword is a hit.
    hits, misses, invalidated = memo_stats(engine)
    version = index.version
    engine.add_triples([Triple(N.e4, RDF.type, N.GraduateStudent)])
    assert index.version > version
    check(engine, "no-op refresh")
    assert memo_stats(engine) == (hits + 2 * len(KEYWORDS), misses, invalidated)

    # A value sharing one term with a multi-term keyword: "student council"
    # is posted under "student" but not under "graduat", so it is not, and
    # never was, in the intersection of "graduate student".
    council = Triple(N.e3, N.name, Literal("student council"))
    assert index.lookup("council professor") == []  # no element has both
    engine.remove_triples([council])
    assert served_from_memo(engine, "graduate student")
    # But "council" lost its last posting: that keyword term now falls
    # back to the fuzzy scan, whatever the other term matches.
    assert not served_from_memo(engine, "council professor")
    check(engine, "council gone")
    engine.add_triples([council])
    assert served_from_memo(engine, "graduate student")
    check(engine, "council back")

    # A value covering every term of the keyword is in its intersection.
    handbook = Triple(N.e2, N.title, Literal("graduate student handbook"))
    engine.add_triples([handbook])
    assert not served_from_memo(engine, "graduate student")
    check(engine, "handbook")
    engine.remove_triples([handbook])
    assert not served_from_memo(engine, "graduate student")
    check(engine, "handbook gone")

    # A value matching "student" only through the lexicon covers the
    # single-term keyword, not "graduate student".
    pupil = Triple(N.e1, N.title, Literal("pupil"))
    engine.add_triples([pupil])
    assert not served_from_memo(engine, "student")
    assert served_from_memo(engine, "graduate student")
    check(engine, "pupil")

    # The last live posting of one term of a multi-term keyword goes:
    # nothing in the (empty) intersection changed, but "studet" now takes
    # its candidates from the fuzzy fallback, which finds "student".
    multi = "studet student"
    assert index.lookup(multi) == []
    engine.remove_triples([Triple(N.e1, N.title, Literal("studet"))])
    assert not served_from_memo(engine, multi)
    assert describe(index.lookup(multi)) == describe(index._lookup_uncached(multi))
    assert index.lookup(multi)
    check(engine, "studet gone")

    # And the incrementally maintained index still answers like a fresh one.
    fresh = KeywordIndex(DataGraph(engine.graph.triples))
    for keyword in KEYWORDS:
        assert describe(index.lookup(keyword)) == describe(fresh.lookup(keyword))


# ----------------------------------------------------------------------
# The bookkeeping is bounded by the memo, not by the churn
# ----------------------------------------------------------------------


def test_bookkeeping_is_bounded_by_the_memo_under_value_churn(monkeypatch):
    size = 8
    monkeypatch.setattr(keyword_index, "LOOKUP_CACHE_SIZE", size)
    index = KeywordIndex(DataGraph(SCRIPT_BASE))
    memo = index._lookup_cache
    student = frozenset({N.Student})
    peak_links = peak_dependencies = 0
    for i in range(5000):
        # Each update mints two terms nothing has seen before ...
        value = Literal(f"fresh{i} minted{i}")
        index.adjust_attribute_occurrence(N.name, value, student, +1)
        # ... which lookups then depend on, beside the standing pool.
        index.lookup(f"fresh{i}")
        index.lookup(f"minted{i} fresh{i}")
        index.lookup(KEYWORDS[i % len(KEYWORDS)])
        if i % 10:  # most go again (entries invalidated), some stay (evicted)
            index.adjust_attribute_occurrence(N.name, value, student, -1)
        peak_dependencies = max(peak_dependencies, len(memo._dependents))
        peak_links = max(
            peak_links, sum(len(keywords) for keywords in memo._dependents.values())
        )
    assert 0 < len(memo) <= size
    # An entry depends on at most its terms, their lexicon neighbours and
    # max_matches (8) elements: well under 32.
    assert peak_dependencies <= peak_links <= 32 * size
    assert index.cache_stats()["invalidated"] > 0


def test_fuzzy_keys_are_bounded_by_the_memo_under_churn(monkeypatch):
    """Fuzzy entries keep their keys apart from the term dependencies: per
    entry, each fuzzy term's n + 1 deletion keys and the terms it read,
    and only live entries' keys."""
    size = 8
    monkeypatch.setattr(keyword_index, "LOOKUP_CACHE_SIZE", size)
    index = KeywordIndex(DataGraph(SCRIPT_BASE))
    memo = index._lookup_cache
    student = frozenset({N.Student})
    peak_keys = peak_links = 0
    for i in range(2000):
        # A digit term is kept verbatim: "0000127" is one edit from both
        # "000012" and "0000137".
        value = Literal(f"{i:06d}7")
        index.adjust_attribute_occurrence(N.name, value, student, +1)
        assert index.lookup(f"{i:06d}")
        index.lookup(f"{i:06d} {i + 1:05d}37")
        index.lookup(f"studnt {i % 7}")
        if i % 10:
            index.adjust_attribute_occurrence(N.name, value, student, -1)
        peak_keys = max(peak_keys, len(memo._keyed))
        peak_links = max(
            peak_links, sum(len(keywords) for keywords in memo._keyed.values())
        )
    assert 0 < len(memo) <= size
    assert all(type(key) is int for key in memo._keyed)
    # At most two fuzzy terms of at most 7 characters per entry: 8 keys
    # each, and a lexicon relative or two.
    assert peak_keys <= peak_links <= 20 * size
    assert index.cache_stats()["invalidated"] > 0


def test_a_too_long_lookup_forms_no_deletions_of_a_later_label(monkeypatch):
    """A lookup too long to probe is not memoized, so it cannot raise the
    bound under which an update forms its label terms' deletions."""
    index = KeywordIndex(DataGraph(SCRIPT_BASE))
    memo = index._lookup_cache
    assert index.lookup("studnt")  # a fuzzy entry: keyed
    formed = []
    original = keyword_index._deletion_keys
    monkeypatch.setattr(
        keyword_index,
        "_deletion_keys",
        lambda term: formed.append(term) or original(term),
    )
    huge = "x" * 10_000
    assert index.lookup(huge) == []
    index.adjust_attribute_occurrence(
        N.name, Literal("9" * 10_000), frozenset({N.Student}), +1
    )
    assert max(map(len, formed), default=0) < 10
    assert huge not in memo._entries
    assert "studnt" in memo._entries  # two or more edits away: it stays


def test_long_fuzzy_terms_keep_o_length_memory():
    """A long vocabulary term puts a keyword of similar length within
    reach of the probe: its neighbours are made one at a time, and its
    entry keeps n + 1 hashes, not n + 1 strings of n - 1 characters."""
    n = 1500
    long_value = "1234567890" * (n // 10)
    triples = SCRIPT_BASE + [Triple(N.e2, N.title, Literal(long_value))]
    index = KeywordIndex(DataGraph(triples))
    memo = index._lookup_cache
    keyword = "0987654321" * (n // 10)  # same length, far more than one edit
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        assert index.lookup(keyword) == []
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # About 400 bytes per key (the hash, its keyword set, the map slot);
    # n + 1 strings of n - 1 characters alone would be n * n bytes.
    assert retained - before < 1000 * n
    assert peak - before < 1000 * n
    assert keyword in memo._entries
    assert len(memo._entries[keyword][3]) <= n + 1
    assert all(type(key) is int for key in memo._keyed)
