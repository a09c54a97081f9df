"""Property: a bundle-loaded engine ≡ the engine that was saved ≡ a rebuild.

The persistence contract extends PR 1's maintained == rebuilt guarantee
to disk: for any engine, ``KeywordSearchEngine.load(save(engine))`` must
produce **byte-identical** ``search()`` output — candidate queries in
canonical form, costs, ranks, renderings (SPARQL/SQL/NL), matching
subgraphs (connecting element, paths, element sets), keyword matches,
and the exploration diagnostics — and ``execute()`` must return the same
answer multiset (answer *order* over hash sets was never part of the
engine's canonicalized surface).

The guarantee must also hold *through the write-ahead delta log*: after
updates against a loaded engine, a fresh ``load`` that replays the WAL
tail must equal both the live updated engine and a from-scratch rebuild
over the final triple set.
"""

import os

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.engine import KeywordSearchEngine
from repro.query.isomorphism import canonical_form
from repro.rdf.graph import DataGraph
from repro.rdf.namespace import RDF, RDFS
from repro.rdf.terms import Literal, URI
from repro.rdf.triples import Triple

# ----------------------------------------------------------------------
# Byte-level search-output signatures
# ----------------------------------------------------------------------


def _subgraph_signature(subgraph):
    return (
        repr(subgraph.connecting_element),
        tuple(tuple(map(repr, path)) for path in subgraph.paths),
        tuple(sorted(map(repr, subgraph.elements))),
        subgraph.cost,
    )


def _exploration_signature(exploration):
    if exploration is None:
        return None
    return (
        exploration.cursors_created,
        exploration.cursors_popped,
        exploration.cursors_pruned,
        exploration.candidates_offered,
        exploration.terminated_by,
        exploration.max_queue_size,
        tuple(_subgraph_signature(s) for s in exploration.subgraphs),
    )


def search_signature(engine, query, **kwargs):
    """Everything a search returns, exactly (timings excepted)."""
    result = engine.search(query, **kwargs)
    return (
        tuple(result.keywords),
        tuple(result.ignored_keywords),
        tuple(tuple(map(repr, matches)) for matches in result.matches),
        tuple(
            (
                canonical_form(c.query),
                str(c.query),
                c.cost,
                c.rank,
                c.to_sparql(),
                c.to_sql(),
                c.verbalize(),
                _subgraph_signature(c.subgraph),
            )
            for c in result.candidates
        ),
        _exploration_signature(result.exploration),
    )


def execute_signature(engine, query):
    """Answer multiset of the best candidate (order is not canonical)."""
    best = engine.search(query).best()
    if best is None:
        return None
    return sorted(str(answer) for answer in engine.execute(best))


def assert_engines_identical(reference, other, queries):
    for query in queries:
        assert search_signature(reference, query) == search_signature(other, query), query
        assert execute_signature(reference, query) == execute_signature(other, query), query


# ----------------------------------------------------------------------
# Fixture-based identity: DBLP and TAP, per the acceptance criteria
# ----------------------------------------------------------------------

DBLP_QUERIES = (
    "conference 2005",
    "article john",
    "proceedings title",
    "journal 2003 author",
    "zzz-no-such-keyword title",
)
TAP_QUERIES = ("musician album", "city country", "person name", "company product")
EXAMPLE_QUERIES = ("cimiano 2006", "aifb publication", "article proceedings 2006")


@pytest.mark.parametrize(
    "fixture_name, queries",
    [
        ("example_graph", EXAMPLE_QUERIES),
        ("dblp_small", DBLP_QUERIES),
        ("tap_small", TAP_QUERIES),
    ],
)
def test_load_save_round_trip_identity(request, tmp_path, fixture_name, queries):
    graph = request.getfixturevalue(fixture_name)
    engine = KeywordSearchEngine(DataGraph(graph.triples))
    path = tmp_path / "engine.reprobundle"
    engine.save(path)
    loaded = KeywordSearchEngine.load(path)
    assert_engines_identical(engine, loaded, queries)
    # The formal snapshot-key pair and epoch survive the round trip.
    assert loaded.summary.snapshot_key == engine.summary.snapshot_key
    assert loaded.keyword_index.snapshot_key == engine.keyword_index.snapshot_key
    assert loaded.index_manager.epoch == engine.index_manager.epoch


def assert_same_graph(graph, reference, terms=()):
    """``graph`` answers every accessor the maintenance path and the
    stores read as ``reference``, the constructor's ``DataGraph`` (the
    oracle), does: per term of either graph (and of ``terms``) its kind,
    types, instances, superclasses, label and incident R/A-edges; per
    predicate whether it labels an R-edge; and the O(1) state — stats,
    conflicts, the preferred predicates — and ``triples``, as a set (a
    loaded graph enumerates its runs, not the order triples came in)."""
    assert set(graph.triples) == set(reference.triples)
    assert len(graph) == len(reference)
    assert graph.stats() == reference.stats()
    assert graph.untyped_entity_count == reference.untyped_entity_count
    assert graph.conflicts == reference.conflicts
    assert graph.preferred_type_predicate == reference.preferred_type_predicate
    assert graph.preferred_subclass_predicate == reference.preferred_subclass_predicate
    universe = {term for t in (*graph.triples, *reference.triples) for term in t}
    for term in universe | set(terms):
        for name in (
            "vertex_kind", "types_of", "instances_of", "instance_count",
            "superclasses_of", "label_of",
        ):
            assert getattr(graph, name)(term) == getattr(reference, name)(term), (name, term)
        for name in ("outgoing", "incoming"):
            assert set(getattr(graph, name)(term)) == set(
                getattr(reference, name)(term)
            ), (name, term)
        if isinstance(term, URI):
            assert graph.has_relation_label(term) == reference.has_relation_label(term)


def test_loaded_graph_answers_as_the_constructors(dblp_small, tmp_path):
    """The data graph is not a stored structure: a loaded engine's is a
    view over its runs that answers as ``DataGraph(the same triples)``
    does, accessor by accessor, before and after a replayed WAL tail."""
    triples = list(dblp_small.triples)
    path = tmp_path / "engine.reprobundle"
    engine = KeywordSearchEngine(DataGraph(triples))
    engine.save(path)

    loaded = KeywordSearchEngine.load(path)
    graph = loaded.graph
    result = loaded.search(DBLP_QUERIES[0])
    assert [c.json_fragment() for c in result.candidates] == [
        c.json_fragment() for c in engine.search(DBLP_QUERIES[0]).candidates
    ]
    candidate, answers, _ = loaded.execute_ranked(DBLP_QUERIES[0], limit=None)
    assert candidate is not None and answers
    assert len(graph) == len(triples) and graph.stats() == engine.graph.stats()
    assert_engines_identical(engine, loaded, DBLP_QUERIES[:2])

    reference = DataGraph(triples)
    assert_same_graph(graph, reference)
    assert len(loaded.store) == len(engine.store)

    ns = "http://example.org/graphstate/"
    added = [
        Triple(URI(ns + "p1"), RDF.type, URI("http://example.org/dblp/Article")),
        Triple(URI(ns + "p1"), URI("http://purl.org/dc/elements/1.1/title"), Literal("Replayed Graph")),
        Triple(URI(ns + "p1"), URI("http://example.org/dblp/year"), Literal("2008")),
    ]
    removed = triples[50:60]
    loaded.add_triples(added)
    loaded.remove_triples(removed)
    loaded.delta_log.close()  # release the single-writer lock ("crash")
    reference.add_all(added)
    reference.remove_all(removed)

    reloaded = KeywordSearchEngine.load(path)
    assert reloaded.artifact["wal_epochs_replayed"] == 2
    gone = {term for t in removed for term in t}
    assert_same_graph(reloaded.graph, reference, gone)
    assert_same_graph(loaded.graph, reference, gone)


def test_wal_tail_replay_identity(dblp_small, tmp_path):
    """save → load → update → reload must equal live and rebuilt engines."""
    triples = list(dblp_small.triples)
    engine = KeywordSearchEngine(DataGraph(triples))
    path = tmp_path / "engine.reprobundle"
    engine.save(path)

    ns = "http://example.org/walprop/"
    added = [
        Triple(URI(ns + "p1"), RDF.type, URI("http://example.org/dblp/Article")),
        Triple(URI(ns + "p1"), URI("http://purl.org/dc/elements/1.1/title"), Literal("Delta Logged Paper")),
        Triple(URI(ns + "p1"), URI("http://example.org/dblp/year"), Literal("2008")),
    ]
    removed = triples[50:60]

    live = KeywordSearchEngine.load(path)
    assert live.add_triples(added) == len(added)
    assert live.remove_triples(removed) == len(removed)
    assert os.path.exists(f"{path}.wal")

    live.delta_log.close()  # release the single-writer lock ("crash")
    reloaded = KeywordSearchEngine.load(path)
    assert reloaded.artifact["wal_epochs_replayed"] == 2
    assert reloaded.index_manager.epoch == live.index_manager.epoch

    final = [t for t in triples if t not in set(removed)] + added
    rebuilt = KeywordSearchEngine(DataGraph(final))

    queries = DBLP_QUERIES + ("delta logged paper", "2008 article")
    assert_engines_identical(live, reloaded, queries)
    assert_engines_identical(rebuilt, reloaded, queries)


def test_save_after_updates_identity(dblp_small, tmp_path):
    """``engine.save`` of a bundle-loaded engine that has applied update
    epochs — a streamed rebuild from its current triples — to a new path
    and over the artifact the engine is attached to.
    The saved bundle must reload to the live engine and to a from-scratch
    one, carry the live epoch, and supersede the sibling delta log."""
    from repro.storage import BundleExistsError, DeltaLog

    triples = list(dblp_small.triples)
    path = tmp_path / "engine.reprobundle"
    KeywordSearchEngine(DataGraph(triples)).save(path)

    ns = "http://example.org/saveprop/"
    title = URI("http://purl.org/dc/elements/1.1/title")
    added = [
        Triple(URI(ns + "p1"), RDF.type, URI("http://example.org/dblp/Article")),
        Triple(URI(ns + "p1"), title, Literal("Saved After Updates")),
        Triple(URI(ns + "p1"), URI("http://example.org/dblp/year"), Literal("2008")),
    ]
    removed = triples[50:60]
    queries = DBLP_QUERIES + ("saved after updates", "2008 article")

    live = KeywordSearchEngine.load(path)
    assert live.add_triples(added) == len(added)
    assert live.remove_triples(removed) == len(removed)
    assert live.index_manager.epoch == 2
    rebuilt = KeywordSearchEngine(DataGraph(live.graph.triples))

    def check(bundle, wal_epochs):
        reloaded = KeywordSearchEngine.load(bundle, attach_wal=False)
        assert reloaded.artifact["epoch_at_save"] == 2
        assert reloaded.artifact["wal_epochs_replayed"] == wal_epochs
        assert reloaded.index_manager.epoch == live.index_manager.epoch
        assert_engines_identical(live, reloaded, queries)
        assert_engines_identical(rebuilt, reloaded, queries)
        if not wal_epochs:
            # A saved bundle's version counters are those of a fresh
            # build of the same triples (replayed epochs advance them).
            assert reloaded.summary.snapshot_key == rebuilt.summary.snapshot_key
            assert (
                reloaded.keyword_index.snapshot_key
                == rebuilt.keyword_index.snapshot_key
            )

    # To a new path: the attached log is someone else's sibling, untouched.
    other = tmp_path / "other.reprobundle"
    assert live.save(other)["epoch"] == 2
    assert len(list(DeltaLog(f"{path}.wal").committed_entries())) == 2
    assert not os.path.exists(f"{other}.wal")
    check(other, wal_epochs=0)

    # Over the attached artifact: refused without force, then the bundle
    # carries both epochs itself and the engine's own log is reset.
    with pytest.raises(BundleExistsError):
        live.save(path)
    assert live.save(path, force=True)["epoch"] == 2
    assert list(DeltaLog(f"{path}.wal").committed_entries()) == []
    check(path, wal_epochs=0)
    assert sorted(os.listdir(tmp_path)) == [
        "engine.reprobundle",
        "engine.reprobundle.wal",
        "other.reprobundle",
    ]

    # The engine stays attached: its next epoch lands in the reset log
    # and replays on top of the bundle it just wrote.
    extra = Triple(URI(ns + "p1"), title, Literal("One More Epoch"))
    assert live.add_triples([extra]) == 1
    live.delta_log.close()
    rebuilt = KeywordSearchEngine(DataGraph(live.graph.triples))
    queries += ("one more epoch",)
    check(path, wal_epochs=1)


# ----------------------------------------------------------------------
# Hypothesis: random update batches through the WAL
# ----------------------------------------------------------------------

EX = "http://example.org/persist/"
ENTITIES = [URI(EX + f"e{i}") for i in range(5)]
CLASSES = [URI(EX + c) for c in ("Person", "Project", "Article")]
RELATIONS = [URI(EX + r) for r in ("knows", "worksOn")]
ATTRIBUTES = [URI(EX + a) for a in ("name", "year")]
VALUES = [Literal(v) for v in ("alice", "bob", "2006")]
LABELS = [RDFS.label, URI("name")]
PROP_QUERIES = ("person", "alice", "knows", "name", "2006", "project bob")

SEED_TRIPLES = [
    Triple(ENTITIES[0], RDF.type, CLASSES[0]),
    Triple(ENTITIES[0], ATTRIBUTES[0], VALUES[0]),
    Triple(ENTITIES[0], RELATIONS[0], ENTITIES[1]),
]

any_triple = st.one_of(
    st.builds(lambda e, c: Triple(e, RDF.type, c), st.sampled_from(ENTITIES), st.sampled_from(CLASSES)),
    st.builds(lambda a, b: Triple(a, RDFS.subClassOf, b), st.sampled_from(CLASSES), st.sampled_from(CLASSES)),
    st.builds(Triple, st.sampled_from(ENTITIES), st.sampled_from(RELATIONS), st.sampled_from(ENTITIES)),
    st.builds(Triple, st.sampled_from(ENTITIES), st.sampled_from(ATTRIBUTES), st.sampled_from(VALUES)),
    # Definition 1 violations (stored, recorded as conflicts): a class
    # used as an entity, type and subclass edges to a literal.
    st.builds(Triple, st.sampled_from(CLASSES), st.sampled_from(RELATIONS), st.sampled_from(ENTITIES + CLASSES)),
    st.builds(lambda e, v: Triple(e, RDF.type, v), st.sampled_from(ENTITIES), st.sampled_from(VALUES)),
    st.builds(lambda c, v: Triple(c, RDFS.subClassOf, v), st.sampled_from(CLASSES), st.sampled_from(VALUES)),
    # Labels: one class may carry several of the same rank.
    st.builds(Triple, st.sampled_from(CLASSES + ENTITIES[:1]), st.sampled_from(LABELS), st.sampled_from(VALUES)),
)
#: Every term a history can mention.
UNIVERSE = [RDF.type, RDFS.subClassOf, *ENTITIES, *CLASSES, *RELATIONS, *ATTRIBUTES, *LABELS, *VALUES]
batches = st.lists(
    st.tuples(
        st.sampled_from(["add", "remove"]),
        st.lists(any_triple, min_size=1, max_size=4),
    ),
    min_size=1,
    max_size=6,
)


@given(initial=st.lists(any_triple, min_size=3, max_size=15), updates=batches)
@settings(max_examples=25, deadline=None)
def test_wal_replay_random_batches(tmp_path_factory, initial, updates):
    """A loaded engine's graph answers as ``DataGraph`` replaying the same
    history at every epoch and after the WAL replay, and the searches of
    the live, the reloaded and a rebuilt engine agree at the end."""
    tmp = tmp_path_factory.mktemp("wal-prop")
    path = tmp / "engine.reprobundle"
    engine = KeywordSearchEngine(DataGraph(initial))
    engine.save(path, force=True)

    live = KeywordSearchEngine.load(path)
    reference = DataGraph(initial)
    # Last, a base triple leaves and comes back: a revived base row.
    for action, batch in [*updates, ("remove", initial[:1]), ("add", initial[:1])]:
        getattr(live, f"{action}_triples")(batch)
        getattr(reference, f"{action}_all")(batch)
        assert_same_graph(live.graph, reference, UNIVERSE)

    live.delta_log.close()  # release the single-writer lock ("crash")
    reloaded = KeywordSearchEngine.load(path)
    assert reloaded.index_manager.epoch == live.index_manager.epoch
    assert_same_graph(reloaded.graph, reference, UNIVERSE)
    rebuilt = KeywordSearchEngine(DataGraph(live.graph.triples))
    for query in PROP_QUERIES:
        live_sig = search_signature(live, query)
        assert search_signature(reloaded, query) == live_sig, query
        assert search_signature(rebuilt, query) == live_sig, query


@given(
    initial=st.lists(any_triple, min_size=3, max_size=15),
    updates=st.lists(
        st.tuples(st.lists(any_triple, max_size=4), st.lists(any_triple, max_size=4)),
        min_size=1,
        max_size=5,
    ),
    strict=st.booleans(),
)
@settings(max_examples=40, deadline=None)
def test_a_mixed_batch_accounts_as_the_constructor(tmp_path_factory, initial, updates, strict):
    """A loaded graph accounts a batch of removes and adds at once; a
    ``DataGraph`` applies the same batch a triple at a time.  Both come
    out with the same stats and the same conflicts in the same order,
    and a strict pair raises the same first conflict and changes
    nothing."""
    from hypothesis import assume
    from repro.rdf.graph import GraphIntegrityError

    try:
        reference = DataGraph(initial, strict=strict)
    except GraphIntegrityError:
        assume(False)
    path = tmp_path_factory.mktemp("mixed") / "engine.reprobundle"
    KeywordSearchEngine(DataGraph(initial, strict=strict)).save(path)
    live = KeywordSearchEngine.load(path, attach_wal=False)
    for adds, removes in updates:
        expected = got = None
        try:
            reference.apply(*reference.effective(adds, removes))
        except GraphIntegrityError as exc:
            expected = str(exc)
        try:
            live.index_manager.apply_batch(adds=adds, removes=removes)
        except GraphIntegrityError as exc:
            got = str(exc)
        assert got == expected
        assert_same_graph(live.graph, reference, UNIVERSE)


@given(
    values=st.lists(st.sampled_from(VALUES), min_size=2, max_size=3, unique=True),
    data=st.data(),
)
@settings(max_examples=15, deadline=None)
def test_a_label_tie_does_not_depend_on_arrival_order(tmp_path_factory, values, data):
    """A class's same-rank labels leave and come back in any order: the
    maintained, the loaded and the rebuilt engine label it with the
    smallest lexical form, and index and search it alike."""
    cls = CLASSES[0]  # a class: its label is the text it is indexed under
    edges = [Triple(cls, RDFS.label, value) for value in values]
    initial = [*SEED_TRIPLES, *edges]
    path = tmp_path_factory.mktemp("labels") / "engine.reprobundle"
    maintained = KeywordSearchEngine(DataGraph(initial))
    maintained.save(path, force=True)
    loaded = KeywordSearchEngine.load(path, attach_wal=False)
    comeback = data.draw(st.permutations(edges))
    for engine in (maintained, loaded):
        engine.remove_triples(edges)
        for triple in comeback:
            engine.add_triples([triple])
    rebuilt = KeywordSearchEngine(DataGraph(initial))

    smallest = min(value.lexical for value in values)
    for engine in (maintained, loaded, rebuilt):
        assert engine.graph.label_of(cls) == smallest
    for query in (*PROP_QUERIES, *(value.lexical for value in values)):
        expected = search_signature(rebuilt, query)
        assert search_signature(maintained, query) == expected, query
        assert search_signature(loaded, query) == expected, query


# ----------------------------------------------------------------------
# Hypothesis: a log cut at every byte offset
# ----------------------------------------------------------------------

non_ascii_labels = st.lists(
    st.text(
        alphabet=st.characters(
            min_codepoint=0x80, max_codepoint=0x1F64F, exclude_categories=["Cs"]
        ),
        min_size=1,
        max_size=4,
    ),
    min_size=2,
    max_size=3,
    unique=True,
)


@given(labels=non_ascii_labels)
@settings(max_examples=10, deadline=None)
def test_wal_truncated_at_every_byte_loads_a_prefix(tmp_path_factory, labels):
    """A crash can cut the log anywhere, including inside a multi-byte
    character of a label.  At every cut the loader and a fresh follower
    cursor read the same committed entries, those are a prefix of the
    epochs written, and ``load`` replays exactly them — it never raises,
    whatever the byte the cut fell on."""
    from repro.storage import DeltaLog, WalCursor

    tmp = tmp_path_factory.mktemp("wal-cut")
    path = tmp / "engine.reprobundle"
    KeywordSearchEngine(DataGraph(SEED_TRIPLES)).save(path)
    wal = tmp / "engine.reprobundle.wal"
    live = KeywordSearchEngine.load(path)
    for i, label in enumerate(labels):
        live.add_triples([Triple(URI(EX + f"n{i}"), ATTRIBUTES[0], Literal(label))])
    live.delta_log.close()
    full = wal.read_bytes()
    written = list(DeltaLog(wal).committed_entries())
    assert [epoch for epoch, _, _ in written] == list(range(len(labels)))

    committed = 0
    for cut in range(len(full) + 1):
        wal.write_bytes(full[:cut])
        entries = list(DeltaLog(wal).committed_entries())
        assert WalCursor(wal).poll() == entries, cut
        assert entries == written[: len(entries)], cut
        assert len(entries) >= committed, cut  # a longer log never un-commits
        committed = len(entries)
        loaded = KeywordSearchEngine.load(path, attach_wal=False)
        assert loaded.index_manager.epoch == committed, cut
    assert committed == len(labels)
