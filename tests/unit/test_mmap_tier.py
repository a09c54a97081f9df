"""Unit tests for the mmap-resident serving tier (repro.storage.mmap_tier).

The property suite (tests/property/test_mmap_tier_identity.py) proves
end-to-end behavioral identity; these tests pin the component contracts
the identity rests on — binary-searched term lookup over the sorted
permutation, pattern-complete triple matching against the sorted runs,
delta/tombstone overlay bookkeeping, and postings handed out by element
id and resolved only on request.
"""

import itertools
import random
from array import array

import pytest

from repro.core.engine import KeywordSearchEngine
from repro.datasets.example import running_example_graph
from repro.keyword.keyword_index import MAX_MATCHES_PER_KEYWORD
from repro.rdf.graph import DataGraph
from repro.rdf.namespace import RDF, XSD
from repro.rdf.terms import Literal, URI
from repro.rdf.triples import Triple
from repro.storage import (
    MmapInvertedIndex,
    MmapTermTable,
    MmapTripleTier,
    build_bundle_streaming,
    load_bundle,
    mmap_tier,
)
from repro.store.triple_store import TripleStore


@pytest.fixture(scope="module")
def example_bundle(tmp_path_factory):
    graph = running_example_graph()
    # Exercise every term shape the wire codec distinguishes: plain,
    # typed, and language-tagged literals alongside URIs and bnodes.
    ex = "http://example.org/mmapunit/"
    extra = [
        Triple(URI(ex + "d1"), URI(ex + "score"), Literal("42", datatype=XSD.integer)),
        Triple(URI(ex + "d1"), URI(ex + "motto"), Literal("hello", language="en")),
        Triple(URI(ex + "d1"), RDF.type, URI(ex + "Doc")),
    ]
    triples = list(graph.triples) + extra
    engine = KeywordSearchEngine(DataGraph(triples))
    path = tmp_path_factory.mktemp("mmap-unit") / "e.reprobundle"
    engine.save(path)
    return engine, path


@pytest.fixture()
def mapped(example_bundle):
    _, path = example_bundle
    return load_bundle(path)


def keyed_postings(index, term):
    """``index.lookup(term)`` with each handle resolved to its element
    key, as sorted reprs: what two tiers' postings are compared by."""
    return sorted(
        repr(posting._replace(element=index.element(posting.element)))
        for posting in index.lookup(term)
    )


def test_term_table_round_trips_every_term(example_bundle, mapped):
    engine, _ = example_bundle
    table = mapped.graph.store._terms
    seen = set()
    for i in range(len(table)):
        term = table[i]
        seen.add(term)
        # id_of is the inverse of decoding, for every stored shape.
        assert table.id_of(term) == i
    for triple in engine.graph.triples:
        assert triple.subject in seen
        assert triple.predicate in seen
        assert triple.object in seen


def test_term_table_absent_terms_return_none(mapped):
    table = mapped.graph.store._terms
    assert table.id_of(URI("http://example.org/absent")) is None
    assert table.id_of(Literal("no-such-lexical-form")) is None
    assert table.id_of(Literal("42", datatype=URI("http://example.org/noDT"))) is None
    assert table.id_of(Literal("hello", language="zz")) is None


def test_miss_memos_stay_bounded_under_update_churn_and_unknown_keywords(
    example_bundle,
):
    """Regression: both reverse maps used to memoize *misses* forever
    (``_ids[term] = None``) — 20 dead terms pinned per update batch, one
    entry per unknown keyword a client ever sent."""
    _, path = example_bundle
    engine = KeywordSearchEngine.load(path, attach_wal=False)
    table = engine.store._terms
    vocab = engine.keyword_index._index._dict
    ex = "http://example.org/churn/"

    known = [table[i] for i in range(len(table))]
    keys_before = [engine.store.key_of(term) for term in known]
    lookups_before = {
        word: keyed_postings(engine.keyword_index._index, word)
        for word in ("cimiano", "2006", "public", "hello")
    }
    ranked_before = [
        (c.cost, str(c.query)) for c in engine.search("cimiano 2006").candidates
    ]

    for i in range(500):
        batch = [
            Triple(URI(f"{ex}s{i}"), URI(f"{ex}p{i}"), Literal(f"churnword{i}")),
            Triple(URI(f"{ex}s{i}"), RDF.type, URI(f"{ex}Class{i}")),
        ]
        engine.add_triples(batch)
        # A delta-only term is its own key, however often it is asked.
        assert engine.store.key_of(batch[0].subject) is batch[0].subject
        assert engine.store.key_of(batch[0].subject) is batch[0].subject
        engine.remove_triples(batch)
    for i in range(500):
        assert engine.keyword_index._index.lookup(f"nosuchword{i}") == []
        assert f"nosuchword{i}" not in engine.keyword_index._index

    # What `_ids` holds is found ids only: never more than the table has,
    # whatever was asked (1,500 absent terms and 500 absent words above).
    assert len(table._ids) <= len(table) and None not in table._ids.values()
    assert len(vocab._ids) <= len(vocab) and None not in vocab._ids.values()

    assert [engine.store.key_of(term) for term in known] == keys_before
    for word, rows in lookups_before.items():
        assert keyed_postings(engine.keyword_index._index, word) == rows
    assert [
        (c.cost, str(c.query)) for c in engine.search("cimiano 2006").candidates
    ] == ranked_before


def test_a_vocabulary_miss_memoizes_nothing(example_bundle):
    """A miss bisects the sorted vocabulary through ``peek``: on a fresh
    load, 1,000 absent words leave no text memoized and no id, and a hit
    memoizes its id alone."""
    _, path = example_bundle
    engine = KeywordSearchEngine.load(path, attach_wal=False)
    vocab = engine.keyword_index._index._dict
    known = {vocab.peek(vid) for vid in range(len(vocab))}
    rng = random.Random(7)
    absent = set()
    while len(absent) < 1000:
        word = "".join(rng.choice("abcdefghijklmnopqrstuvwxyz0123456789")
                       for _ in range(rng.randrange(1, 12)))
        if word not in known:
            absent.add(word)
    assert all(vocab.id_of(word) is None for word in absent)
    assert vocab._texts == {} and vocab._ids == {}
    vid = vocab.id_of("cimiano")
    assert vid is not None and vocab._ids == {"cimiano": vid}
    assert vocab._texts == {}


def test_triple_tier_matches_every_pattern(example_bundle, mapped):
    engine, _ = example_bundle
    tier = mapped.graph.store
    assert isinstance(tier, MmapTripleTier)
    reference = TripleStore(engine.graph.triples)
    assert len(tier) == len(reference)

    triples = list(engine.graph.triples)
    probes = [triples[0], triples[len(triples) // 2], triples[-1]]
    absent = Triple(URI("http://example.org/nope"), URI("http://example.org/p"), Literal("x"))
    for t in probes:
        for s, p, o in itertools.product((t.subject, None), (t.predicate, None), (t.object, None)):
            expect = sorted(map(repr, reference.match(s, p, o)))
            got = sorted(map(repr, tier.match(s, p, o)))
            assert got == expect, (s, p, o)
            assert tier.count(s, p, o) == reference.count(s, p, o), (s, p, o)
    assert list(tier.match(absent.subject, absent.predicate, absent.object)) == []
    assert absent not in tier
    assert probes[0] in tier
    # Ill-typed patterns match nothing instead of erroring.
    assert list(tier.match(Literal("lit-subject"), None, None)) == []
    assert tier.count(None, Literal("lit-predicate"), None) == 0
    assert sorted(map(repr, tier.predicates())) == sorted(map(repr, reference.predicates()))
    for pred in reference.predicates():
        assert tier.predicate_cardinality(pred) == reference.predicate_cardinality(pred)


def test_triple_tier_overlay_add_remove(example_bundle, mapped):
    engine, _ = example_bundle
    tier = mapped.graph.store
    reference = TripleStore(engine.graph.triples)
    base = list(engine.graph.triples)
    fresh = Triple(URI("http://example.org/new"), URI("http://example.org/p"), Literal("v"))
    victim = base[3]

    for store in (tier, reference):
        assert store.add(fresh) is True
        assert store.add(fresh) is False  # already present
        assert store.remove(victim) is True
        assert store.remove(victim) is False  # already gone
    assert len(tier) == len(reference)
    assert sorted(map(repr, tier.match())) == sorted(map(repr, reference.match()))

    # Un-tombstoning: re-adding a removed base triple revives the mapped
    # row instead of duplicating it in the delta.
    for store in (tier, reference):
        assert store.add(victim) is True
        assert store.remove(fresh) is True
    assert len(tier) == len(reference)
    assert sorted(map(repr, tier.match())) == sorted(map(repr, reference.match()))


# -- the column-view range function ------------------------------------


def _id_tier(rows):
    """A tier straight over id rows: no bundle and no term table, which
    nothing at id level reads."""
    runs = []
    for order in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):  # spo, pos, osp
        flat = array("q")
        for row in sorted(tuple(r[p] for p in order) for r in rows):
            flat.extend(row)
        runs.append(memoryview(flat))
    return MmapTripleTier(*runs, len(rows), None)


def _probe(tier, s, p, o):
    """The ``(subject key, object key)`` rows of a key pattern (None =
    any), through the probe of the atom's access path that the pattern
    calls for — ``has`` / ``objects`` / ``subjects`` / ``pairs`` — asked
    of every access path that may serve it (the bound ends narrowed up
    front as the atom's constants, or not): all of them must agree."""
    answers = []
    for s_const, o_const in itertools.product({None, s}, {None, o}):
        access = tier.access(p, s_const, o_const)
        if s is None and o is None:
            rows = list(access.pairs())
        elif s is None:
            rows = [(key, o) for key in access.subjects(o)]
        elif o is None:
            rows = [(s, key) for key in access.objects(s)]
        else:
            rows = [(s, o)] if access.has(s, o) else []
        answers.append(sorted(rows, key=repr))
    assert all(rows == answers[0] for rows in answers), (s, p, o)
    return answers[0]


def _oracle(rows, pattern):
    return sorted(
        r for r in rows if all(want in (None, got) for want, got in zip(pattern, r))
    )


def _read(tier, pattern):
    columns, lo, hi = tier._rows(*pattern)
    return list(zip(*[c[lo:hi].tolist() for c in columns])), lo, hi


#: Even ids only, so there are keys below (-1), between (odd) and above
#: (9) the stored ones.
ID_ROWS = [
    (s, p, o)
    for s, p, o in itertools.product((0, 2, 4, 6, 8), (0, 2, 4), (0, 2, 4, 6, 8))
    if (s + p + o) % 3
]


def test_range_function_against_a_sorted_list():
    tier = _id_tier(ID_ROWS)
    keys = (None, -1, 0, 1, 4, 7, 8, 9)  # first, last, below, between, above
    for pattern in itertools.product(keys, repeat=3):  # every prefix length, every run
        got, lo, hi = _read(tier, pattern)
        assert sorted(got) == _oracle(ID_ROWS, pattern), pattern
        assert 0 <= lo <= hi <= len(ID_ROWS)
    first, last = min(ID_ROWS), max(ID_ROWS)
    assert _read(tier, first) == ([first], 0, 1)
    assert _read(tier, last) == ([last], len(ID_ROWS) - 1, len(ID_ROWS))


def test_range_function_on_an_empty_tier():
    tier = _id_tier([])
    for pattern in itertools.product((None, 0), repeat=3):
        assert _read(tier, pattern) == ([], 0, 0)
    assert len(tier) == 0
    assert tier.count_keys(None, 0, None) == 0
    assert _probe(tier, None, 0, None) == []


def test_scans_cross_chunk_boundaries(monkeypatch):
    monkeypatch.setattr(mmap_tier, "SCAN_CHUNK", 4)
    tier = _id_tier(ID_ROWS)
    for p in (0, 2, 4):
        rows = _oracle(ID_ROWS, (None, p, None))
        assert len(rows) > 3 * 4  # several chunks, the last one short
        assert sorted(_probe(tier, None, p, None)) == [(s, o) for s, _, o in rows]
        assert tier.count_keys(None, p, None) == len(rows)
        for key in (0, 1, 8):
            expect = [(r[0], r[2]) for r in _oracle(ID_ROWS, (key, p, None))]
            assert sorted(_probe(tier, key, p, None)) == expect
            expect = [(r[0], r[2]) for r in _oracle(ID_ROWS, (None, p, key))]
            assert sorted(_probe(tier, None, p, key)) == expect
            for s, o in itertools.product((0, 1, 8), repeat=2):
                assert _probe(tier, s, p, o) == [(s, o)] * ((s, p, o) in ID_ROWS)
    # Tombstones are dropped inside a chunk and at its edges alike.
    victims = _oracle(ID_ROWS, (None, 2, None))[3:9]
    for s, p, o in victims:
        tier._tombstones.setdefault(p, set()).add((s, o))
        tier._n_dead += 1
    live = [r for r in ID_ROWS if r not in victims]
    assert sorted(_probe(tier, None, 2, None)) == [
        (s, o) for s, _, o in _oracle(live, (None, 2, None))
    ]
    for s, p, o in victims:
        assert _probe(tier, s, p, o) == []
        assert (s, o) not in _probe(tier, s, p, None)
        assert (s, o) not in _probe(tier, None, p, o)
    assert tier.count_keys(None, 2, None) == len(_oracle(live, (None, 2, None)))


def _assert_counts_are_scan_lengths(tier, reference, probes):
    """``count`` is ``len(match)`` and ``count_keys`` is the number of
    rows the pattern's probe returns, for all eight patterns of every
    probe triple, and both equal the reference."""
    for t in probes:
        for s, p, o in itertools.product(
            (t.subject, None), (t.predicate, None), (t.object, None)
        ):
            matched = list(tier.match(s, p, o))
            assert len(matched) == len(set(matched)) == tier.count(s, p, o), (s, p, o)
            assert set(matched) == set(reference.match(s, p, o)), (s, p, o)
            if p is not None:
                keys = [None if x is None else tier.key_of(x) for x in (s, p, o)]
                pairs = _probe(tier, *keys)
                assert len(pairs) == tier.count_keys(*keys) == len(matched), (s, p, o)
                assert {(tier.term_of(a), tier.term_of(b)) for a, b in pairs} == {
                    (m.subject, m.object) for m in matched
                }
        assert (t in tier) == (t in reference)
    assert len(tier) == len(reference) == tier.count()


def test_counts_are_scan_lengths_through_overlay_updates(example_bundle, mapped):
    engine, _ = example_bundle
    tier = mapped.graph.store
    reference = TripleStore(engine.graph.triples)
    base = list(engine.graph.triples)
    victim, other = base[3], base[-1]
    fresh = [
        Triple(URI("http://example.org/new"), victim.predicate, Literal("v")),
        Triple(victim.subject, URI("http://example.org/newp"), victim.subject),
        Triple(URI("http://example.org/new"), other.predicate, other.object),
    ]
    probes = [base[0], victim, other, *fresh]
    _assert_counts_are_scan_lengths(tier, reference, probes)
    steps = [
        ("remove", victim), ("add", fresh[0]), ("add", fresh[1]), ("remove", other),
        ("add", victim), ("add", fresh[2]), ("remove", fresh[0]), ("add", fresh[0]),
        ("remove", victim), ("add", other),
    ]
    for op, t in steps:
        assert getattr(tier, op)(t) == getattr(reference, op)(t), (op, t)
        _assert_counts_are_scan_lengths(tier, reference, probes)


def test_counts_stay_exact_under_thousands_of_tombstones(tmp_path):
    ex = "http://example.org/churn/"
    preds = [URI(f"{ex}p{i}") for i in range(3)]
    triples = [
        Triple(URI(f"{ex}s{i}"), preds[i % 3], URI(f"{ex}o{i % 50}"))
        for i in range(3600)
    ]
    path = tmp_path / "churn.reprobundle"
    build_bundle_streaming(iter(triples), path)
    tier = load_bundle(path).graph.store
    reference = TripleStore(triples)

    def agree():
        assert len(tier) == len(reference)
        assert set(tier.predicates()) == set(reference.predicates())
        for p in preds:
            assert tier.predicate_cardinality(p) == reference.predicate_cardinality(p)
            assert tier.count(None, p, None) == reference.count(None, p, None)
        for t in (triples[0], triples[1], triples[1799], triples[3599]):
            for s, p, o in itertools.product(
                (t.subject, None), (t.predicate, None), (t.object, None)
            ):
                assert tier.count(s, p, o) == reference.count(s, p, o), (s, p, o)
        # Grouped by predicate, nothing lost: the sets sum to the total.
        assert sum(map(len, tier._tombstones.values())) == tier._n_dead
        assert tier._n_dead == len(triples) - len(reference)

    removed = triples[:3000]  # every predicate loses most, not all, rows
    for store in (tier, reference):
        assert store.remove_all(removed) == 3000
    agree()
    assert set(tier._tombstones) == {tier._terms.id_of(p) for p in preds}
    for store in (tier, reference):
        assert store.add_all(removed[::2]) == 1500  # un-tombstone every other one
    agree()
    for store in (tier, reference):
        assert store.remove_all(removed) == 1500  # ... and remove them again
        assert store.remove_all(triples[3000:]) == 600  # now whole predicates die
    agree()
    assert len(tier) == 0 and list(tier.predicates()) == []
    for store in (tier, reference):
        assert store.add_all(triples) == 3600
    agree()
    assert tier._tombstones == {} and len(tier._delta) == 0


def test_inverted_index_lookup_and_tombstones(example_bundle, mapped):
    engine, _ = example_bundle
    inverted = mapped.keyword_index._index
    assert isinstance(inverted, MmapInvertedIndex)
    reference = engine.keyword_index._index

    assert sorted(inverted.iter_terms()) == sorted(reference.iter_terms())
    for term in reference.iter_terms():
        assert inverted.document_frequency(term) == reference.document_frequency(term)
        assert keyed_postings(inverted, term) == keyed_postings(reference, term), term

    # Unindex an element: its postings disappear from every term; the
    # remaining base rows survive the tombstone filter untouched.
    victim = next(iter(reference.lookup("public")))  # best-scored posting
    element = victim.element
    assert inverted.unindex(element) is True
    assert inverted.unindex(element) is False
    for term in reference.iter_terms():
        live = [p for p in reference.lookup(term) if p.element != element]
        assert keyed_postings(inverted, term) == sorted(map(repr, live)), term

    # Re-index through the delta: lookups see base rows then delta rows,
    # matching a materialized dict's delete/reinsert-at-end ordering.
    inverted.index(element, ["public", "public", "reborn"])
    assert inverted.document_frequency("reborn") == 1
    rows = inverted.lookup("public")
    assert rows[-1].element == element and rows[-1].term_frequency == 2
    # Its base id stays dead: the element is posted once, by its key.
    assert [inverted.element(p.element) for p in rows].count(element) == 1


def test_posted_counts_reads_the_elements_own_record(tmp_path, monkeypatch):
    """``posted_counts`` is the element's own (term, tf) record on both
    tiers — through base rows, a tombstone and a delta re-post — and on
    the mmap tier it never decodes a posting list to get there."""
    ex = "http://example.org/mmapunit/"
    texts = ["data data mining", "data mining", "mining mining mining data", "data"]
    triples = [
        Triple(URI(f"{ex}d{i}"), URI(ex + "topic"), Literal(text))
        for i, text in enumerate(texts)
    ]
    path = tmp_path / "tf.reprobundle"
    build_bundle_streaming(iter(triples), path)
    inverted = load_bundle(path).keyword_index._index
    reference = KeywordSearchEngine(DataGraph(triples)).keyword_index._index
    runs_read = []
    read = mmap_tier.MmapPostingsReader.postings
    monkeypatch.setattr(
        mmap_tier.MmapPostingsReader, "postings",
        lambda self, vid: runs_read.append(vid) or read(self, vid),
    )

    element = ("value", Literal(texts[2]))
    assert reference.posted_counts(element) == {"mine": 3, "data": 1}
    for key in reference._element_terms:
        assert inverted.posted_counts(key) == reference.posted_counts(key)
    assert runs_read == []  # no run was read
    assert inverted.posted_counts(("value", Literal("never indexed"))) == {}

    for index in (inverted, reference):
        index.unindex(element)
        assert index.posted_counts(element) == {}
        index.index(element, ["data", "data", "reborn"])
        assert index.posted_counts(element) == {"data": 2, "reborn": 1}


def test_lookup_hands_out_base_elements_by_id(mapped):
    """A lookup reads a run as element ids and decodes no term; the
    caller resolves the handles it keeps — through the term table's
    memo with ``element``, without it with ``peek_element``."""
    inverted = mapped.keyword_index._index
    table = inverted._terms
    memoized = len(table._terms)
    postings = inverted.lookup("public") + inverted.lookup("cimiano")
    assert postings and all(isinstance(p.element, int) for p in postings)
    assert len(table._terms) == memoized
    peeked = [inverted.peek_element(p.element) for p in postings]
    assert len(table._terms) == memoized
    unseen = {term for _, term in peeked} - set(table._terms.values())
    assert unseen  # a value nothing has decoded yet
    resolved = [inverted.element(p.element) for p in postings]
    assert resolved == peeked
    assert ("class", URI("http://example.org/aifb/Publication")) in resolved
    assert len(table._terms) == memoized + len(unseen)
    assert inverted.element(("value", Literal("any key"))) == ("value", Literal("any key"))


def test_cold_lookup_decodes_only_the_matches_it_keeps(tmp_path, monkeypatch):
    """Forty values tie at the cutoff of "student": a cold lookup orders
    them all by their keys' repr, but the term table memoizes the terms
    of the matches it keeps and no more — and those are the constructed
    engine's matches, in its order, ties at the cutoff included."""
    ex = "http://example.org/ties/"
    rng = random.Random(7)
    numbers = rng.sample(range(1000), 40)
    triples = [Triple(URI(ex + "e0"), RDF.type, URI(ex + "Student"))] + [
        Triple(URI(f"{ex}e{i}"), URI(ex + "name"), Literal(f"student {n}"))
        for i, n in enumerate(numbers)
    ]
    rng.shuffle(triples)  # element ids follow neither label nor repr order
    path = tmp_path / "ties.reprobundle"
    build_bundle_streaming(iter(triples), path)
    loaded = KeywordSearchEngine.load(path, attach_wal=False)
    constructed = KeywordSearchEngine(DataGraph(triples))

    table = loaded.keyword_index._index._terms
    decoded = []
    decode = MmapTermTable._decode
    monkeypatch.setattr(
        MmapTermTable, "_decode", lambda table, i: decoded.append(i) or decode(table, i)
    )
    memoized = len(table._terms)
    matches = loaded.keyword_index.lookup("student")
    assert len(table._terms) - memoized <= MAX_MATCHES_PER_KEYWORD
    assert len(set(decoded)) >= len(numbers)  # every tie was compared

    expected = constructed.keyword_index.lookup("student")
    assert len(expected) == MAX_MATCHES_PER_KEYWORD
    # The cutoff falls inside the ties: which of them are kept is the
    # tie-break's to say.
    assert [m.score for m in expected].count(expected[-1].score) < len(numbers)
    assert [(repr(m), m.element_key) for m in matches] == [
        (repr(m), m.element_key) for m in expected
    ]


def test_cold_fuzzy_lookup_memoizes_no_vocabulary(tmp_path):
    """A keyword no term matches falls back to probing its one-edit
    neighbourhood, hundreds of bisects of the vocabulary, but memoizes
    none of the texts they read — and the match is the constructed
    engine's."""
    ex = "http://example.org/fuzzy/"
    rng = random.Random(3)
    letters = "abcdefghijklmnopqrstuvwxyz"
    words = {
        "".join(rng.choice(letters) for _ in range(rng.randrange(5, 10)))
        for _ in range(300)
    }
    triples = [Triple(URI(ex + "e0"), RDF.type, URI(ex + "Student"))] + [
        Triple(URI(f"{ex}e{i}"), URI(ex + "name"), Literal(word))
        for i, word in enumerate(sorted(words))
    ]
    path = tmp_path / "fuzzy.reprobundle"
    build_bundle_streaming(iter(triples), path)
    loaded = KeywordSearchEngine.load(path, attach_wal=False)
    constructed = KeywordSearchEngine(DataGraph(triples))

    vocabulary = loaded.keyword_index._index._dict
    memoized = len(vocabulary._texts)
    matches = loaded.keyword_index.lookup("studnt")
    assert len(vocabulary._texts) - memoized <= 2 * len(vocabulary).bit_length()
    assert len(vocabulary) > 300

    expected = constructed.keyword_index.lookup("studnt")
    assert [m.element_key for m in expected] == [("class", URI(ex + "Student"))]
    assert [(repr(m), m.element_key) for m in matches] == [
        (repr(m), m.element_key) for m in expected
    ]


def test_engine_stats_report_tier(example_bundle):
    """``index_tier`` is what the code can observe, not something to
    set: a loaded bundle is served in place, the constructors build
    dicts.  ``load`` still accepts (and checks, and ignores) the keyword
    the benchmark harness passes."""
    built, path = example_bundle
    loaded = KeywordSearchEngine.load(path, attach_wal=False)
    assert loaded.index_tier == loaded.keyword_index.index_tier == "mmap"
    assert loaded.artifact["index_tier"] == "mmap"
    assert isinstance(loaded.store, MmapTripleTier)
    assert built.index_tier == built.keyword_index.index_tier == "memory"
    assert built.artifact is None
    with pytest.raises(AttributeError):
        loaded.index_tier = "memory"
    for accepted in ("memory", "mmap"):
        same = KeywordSearchEngine.load(path, attach_wal=False, index_tier=accepted)
        assert same.index_tier == "mmap" and isinstance(same.store, MmapTripleTier)
    with pytest.raises(ValueError, match="unknown index_tier 'disk'"):
        KeywordSearchEngine.load(path, attach_wal=False, index_tier="disk")

    # Neither tier keeps decoded posting lists: nothing to report.
    loaded.search("publication")
    assert "postings" not in built.cache_stats()
    assert "postings" not in loaded.cache_stats()
