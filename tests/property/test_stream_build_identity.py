"""Property: the bundle builder ≡ the in-process engine.

The offline layer has one derivation (``repro.rdf.derivation``) and
this suite is where two of its consumers meet: the in-process
constructors (``KeywordSearchEngine(DataGraph(triples))`` — the library
API and the oracle of every identity suite), which feed it in set
order, and the streaming builder (storage.stream_build — the only code
that writes a ``.reprobundle``, from a triple iterator with external
sorts and disk spills, never holding the corpus or its index in memory
at once), which feeds it in arrival order.  That the two orders differ
is safe because no search reads insertion order
(``test_insertion_order_is_not_a_contract``).  The contract is
*identity*, not similarity: for the same triples the built bundle must
load to an engine whose formal snapshot keys
``(SummaryGraph.snapshot_key, KeywordIndex.snapshot_key)`` and whose
full ``search()`` output — candidates, costs, renderings, matching
subgraphs, exploration diagnostics — equal the engine constructed in
process.

The spill machinery is exercised for real: a deliberately tiny spill
budget forces the postings sort through multiple on-disk runs and a
k-way merge (asserted via the builder's run counter), so the identity
holds *because of* the merge path, not by staying under budget.
"""

from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from bundle_layout import EXPECTED_SECTIONS
from test_persistence_identity import (
    assert_engines_identical,
    assert_same_graph,
    execute_signature,
    search_signature,
)

from repro.core.engine import KeywordSearchEngine
from repro.keyword.keyword_index import KeywordIndex
from repro.rdf.graph import DataGraph
from repro.rdf.namespace import RDF, RDFS
from repro.rdf.terms import Literal, URI
from repro.rdf.triples import Triple
from repro.storage import build_bundle_streaming
from repro.summary.summary_graph import SummaryGraph

#: Small enough that any non-trivial corpus spills (~42 rows per sorter).
TINY_BUDGET = 4096

DBLP_QUERIES = (
    "conference 2005",
    "article john",
    "proceedings title",
    "journal 2003 author",
    "zzz-no-such-keyword title",
)
TAP_QUERIES = ("musician album", "city country", "person name", "company product")
EXAMPLE_QUERIES = ("cimiano 2006", "aifb publication", "article proceedings 2006")


def _streamed_engine(graph, path, **kwargs):
    """Build a bundle out-of-core from the graph's triples, load it."""
    info = build_bundle_streaming(iter(graph.triples), path, **kwargs)
    return KeywordSearchEngine.load(path), info


@pytest.mark.parametrize(
    "fixture_name, queries",
    [
        ("example_graph", EXAMPLE_QUERIES),
        ("dblp_small", DBLP_QUERIES),
        ("tap_small", TAP_QUERIES),
    ],
)
def test_streamed_equals_in_memory(request, tmp_path, fixture_name, queries):
    graph = request.getfixturevalue(fixture_name)
    reference = KeywordSearchEngine(DataGraph(graph.triples))
    loaded, info = _streamed_engine(
        graph, tmp_path / "streamed.reprobundle", spill_budget_bytes=TINY_BUDGET
    )
    # Formal snapshot identity (Section VII's maintained == rebuilt keys).
    assert loaded.summary.snapshot_key == reference.summary.snapshot_key
    assert loaded.keyword_index.snapshot_key == reference.keyword_index.snapshot_key
    # Full behavioral identity, including execute() answer multisets.
    assert_engines_identical(reference, loaded, queries)
    assert_indexes_equal(loaded, reference)


def test_tiny_budget_actually_spills(dblp_small, tmp_path):
    """The acceptance gate: identity must hold across >= 2 disk runs."""
    _, info = _streamed_engine(
        dblp_small, tmp_path / "spilled.reprobundle", spill_budget_bytes=TINY_BUDGET
    )
    assert info["postings_runs"] >= 2


def test_engine_save_is_the_builder(example_graph, tmp_path):
    """``engine.save`` hands the engine's triples and configuration to
    the same builder: every section byte for byte, in the same order, as
    a direct build with that configuration — also across a spill budget
    that changes how the sorts run, not what they produce.  The header
    records only the configuration some caller varies; ``guided`` is how
    an engine explores, not what the artifact holds, so a non-default
    value leaves no trace in it."""
    import json
    import struct

    from repro.storage.bundle import MAGIC

    reference = KeywordSearchEngine(
        DataGraph(example_graph.triples), cost_model="c2", k=7, guided=False
    )
    saved = tmp_path / "saved.reprobundle"
    built = tmp_path / "built.reprobundle"
    reference.save(saved)
    build_bundle_streaming(
        iter(example_graph.triples),
        built,
        cost_model="c2",
        k=7,
        spill_budget_bytes=TINY_BUDGET,
    )

    def sections(path):
        raw = path.read_bytes()
        assert raw[: len(MAGIC)] == MAGIC
        header_len = struct.unpack_from("<I", raw, len(MAGIC) + 4)[0]
        header = json.loads(raw[len(MAGIC) + 8 : len(MAGIC) + 8 + header_len])
        base = len(MAGIC) + 8 + header_len
        base += (-base) % 8
        return [
            (s["name"], raw[base + s["offset"] : base + s["offset"] + s["length"]])
            for s in header["sections"]
        ], header

    saved_sections, saved_header = sections(saved)
    built_sections, built_header = sections(built)
    assert saved_sections == built_sections
    assert [name for name, _ in saved_sections] == EXPECTED_SECTIONS
    for key in ("snapshot", "engine", "graph", "counts"):
        assert built_header[key] == saved_header[key], key
    for header in (saved_header, built_header):
        assert set(header["engine"]) == {"cost_model", "k", "dmax", "search_cache_size"}
        assert set(header["kindex"]) == {"version", "build_seconds"}


# ----------------------------------------------------------------------
# Hypothesis: random corpora, including Definition-1 violations
# ----------------------------------------------------------------------

EX = "http://example.org/stream/"
ENTITIES = [URI(EX + f"e{i}") for i in range(6)]
CLASSES = [URI(EX + c) for c in ("Person", "Project", "Article")]
RELATIONS = [URI(EX + r) for r in ("knows", "worksOn")]
ATTRIBUTES = [URI(EX + a) for a in ("name", "year")]
VALUES = [Literal(v) for v in ("alice", "bob", "2006")]
PROP_QUERIES = ("person", "alice", "knows", "name", "2006", "project bob")

any_triple = st.one_of(
    st.builds(lambda e, c: Triple(e, RDF.type, c), st.sampled_from(ENTITIES), st.sampled_from(CLASSES)),
    st.builds(lambda a, b: Triple(a, RDFS.subClassOf, b), st.sampled_from(CLASSES), st.sampled_from(CLASSES)),
    st.builds(Triple, st.sampled_from(ENTITIES), st.sampled_from(RELATIONS), st.sampled_from(ENTITIES)),
    st.builds(Triple, st.sampled_from(ENTITIES), st.sampled_from(ATTRIBUTES), st.sampled_from(VALUES)),
    # Definition-1 violations the graph records as conflicts: they must
    # survive the streamed path identically (stored but unclassified).
    st.builds(lambda e, v: Triple(e, RDF.type, v), st.sampled_from(ENTITIES), st.sampled_from(VALUES)),
    st.builds(lambda e, c: Triple(e, RELATIONS[0], c), st.sampled_from(ENTITIES), st.sampled_from(CLASSES)),
)


EPOCH_ADDS = [
    Triple(ENTITIES[0], RDF.type, CLASSES[1]),
    Triple(ENTITIES[5], ATTRIBUTES[0], Literal("carol")),
    Triple(ENTITIES[5], RELATIONS[1], ENTITIES[0]),
]


def _by_n3(triples):
    return sorted(t.n3() for t in triples)


def assert_indexes_equal(loaded, reference):
    """Below the query level: everything the mapped readers of a loaded
    bundle can enumerate == what the dicts the in-process constructors
    build enumerate — all eight ``match()`` patterns around every stored
    triple (and an absent one), every vocabulary term's posting rows,
    every element's posted terms, every class-context refcount
    group."""
    ours, theirs = loaded.store, reference.store
    assert len(ours) == len(theirs)
    assert _by_n3(ours.match()) == _by_n3(theirs.match())  # no row twice
    assert set(ours.predicates()) == set(theirs.predicates())
    absent = Triple(URI(EX + "nobody"), URI(EX + "nothing"), Literal("nowhere"))
    patterns = set()
    for triple in [*theirs.match(), absent]:
        assert (triple in ours) == (triple in theirs), triple
        patterns.update(product(*((term, None) for term in triple)))
    for pattern in patterns:
        assert _by_n3(ours.match(*pattern)) == _by_n3(theirs.match(*pattern)), pattern
        assert ours.count(*pattern) == theirs.count(*pattern), pattern

    ours, theirs = loaded.keyword_index._index, reference.keyword_index._index
    # Which term comes first, and which of two elements of one kind
    # within a term, is the constructors' set-iteration order (hash-seed
    # dependent): the contract is the same terms and the same rows.
    assert sorted(ours.iter_terms()) == sorted(theirs.iter_terms())
    assert len(ours) == len(theirs) == ours.term_count
    assert ours.element_count == theirs.element_count
    assert ours.posting_count == theirs.posting_count
    assert ours.lookup("no-such-term") == [] and "no-such-term" not in ours
    elements = set()
    for term in theirs.iter_terms():
        assert term in ours
        # A loaded index hands base postings out by element id: compare
        # them resolved to their element keys.
        resolved = [p._replace(element=ours.element(p.element)) for p in ours.lookup(term)]
        assert sorted(resolved, key=repr) == sorted(theirs.lookup(term), key=repr), term
        assert ours.document_frequency(term) == theirs.document_frequency(term)
        elements.update(posting.element for posting in theirs.lookup(term))
    assert len(elements) == theirs.element_count
    for element in elements:
        assert ours.posted_counts(element) == theirs.posted_counts(element), element

    ours, theirs = loaded.keyword_index, reference.keyword_index
    for name in ("_attribute_class_refs", "_value_occurrence_refs"):
        mapped, built = getattr(ours, name), getattr(theirs, name)
        assert len(mapped) == len(built), name
        assert dict(mapped.items()) == built, name
        assert all(key in mapped for key in built), name


@given(triples=st.lists(any_triple, min_size=1, max_size=25))
@settings(max_examples=25, deadline=None)
def test_streamed_identity_random_corpora(tmp_path_factory, triples):
    tmp = tmp_path_factory.mktemp("stream-prop")
    path = tmp / "g.reprobundle"
    reference = KeywordSearchEngine(DataGraph(triples))
    build_bundle_streaming(iter(triples), path, spill_budget_bytes=TINY_BUDGET)
    loaded = KeywordSearchEngine.load(path)
    assert loaded.summary.snapshot_key == reference.summary.snapshot_key
    assert loaded.keyword_index.snapshot_key == reference.keyword_index.snapshot_key
    # The header's conflicts and stats are the builder's own derivation,
    # the rest the view's probes of the runs: together they answer as
    # the constructor's graph, violations included.
    assert_same_graph(loaded.graph, reference.graph)
    # On a load of its own: enumerating decodes (and, for the refcount
    # groups, promotes into the overlay) everything it reads, and the
    # epoch below must also find groups nothing has touched yet.
    assert_indexes_equal(KeywordSearchEngine.load(path, attach_wal=False), reference)
    for query in PROP_QUERIES:
        assert search_signature(loaded, query) == search_signature(reference, query), query
        assert execute_signature(loaded, query) == execute_signature(reference, query), query
    # One add/remove epoch through incremental maintenance on both: base
    # runs + tombstones + delta must enumerate as the maintained dicts do.
    for engine in (loaded, reference):
        engine.add_triples(EPOCH_ADDS)
        engine.remove_triples(triples[:2])
    assert_indexes_equal(loaded, reference)
    assert_same_graph(loaded.graph, reference.graph, {t for x in triples[:2] for t in x})
    for query in PROP_QUERIES:
        assert search_signature(loaded, query) == search_signature(reference, query), query


def _shuffled_refs(refs, rng):
    """A refcount map with its elements and each group's members in a
    random order."""
    groups = [(element, list(group.items())) for element, group in refs.items()]
    rng.shuffle(groups)
    for _, members in groups:
        rng.shuffle(members)
    return {element: dict(members) for element, members in groups}


@given(triples=st.lists(any_triple, min_size=10, max_size=40), rng=st.randoms())
@settings(max_examples=25, deadline=None)
def test_insertion_order_is_not_a_contract(triples, rng):
    """The builder counts in arrival order, the constructors in set
    order and maintenance in batch order, so no search may depend on the
    order summary vertices, summary edges or class-context members were
    inserted in: a summary replayed permuted, with the refcount groups
    shuffled, searches exactly as the original under every cost model."""
    graph = DataGraph(triples)
    built = KeywordSearchEngine(graph)
    state = built.summary.state_for_persistence()
    vertices = list(state["vertices"].values())
    edges = [
        (e.label, e.kind, e.source_key, e.target_key, e.agg_count)
        for e in state["edges"].values()
    ]
    rng.shuffle(vertices)
    rng.shuffle(edges)
    summary = SummaryGraph.from_state(
        vertices,
        edges,
        total_entities=state["total_entities"],
        total_relation_edges=state["total_relation_edges"],
        total_attribute_edges=state["total_attribute_edges"],
        build_seconds=state["build_seconds"],
        version=state["version"],
    )
    index = built.keyword_index
    keyword_index = KeywordIndex.from_state(
        graph,
        index._index,
        _shuffled_refs(index._attribute_class_refs, rng),
        _shuffled_refs(index._value_occurrence_refs, rng),
        version=index.version,
        build_seconds=index.build_seconds,
    )
    for cost_model in ("c1", "c2", "c3", "pagerank"):
        reference = KeywordSearchEngine(
            graph, cost_model=cost_model, keyword_index=index, summary=built.summary
        )
        permuted = KeywordSearchEngine(
            graph, cost_model=cost_model, keyword_index=keyword_index, summary=summary
        )
        for query in PROP_QUERIES:
            assert search_signature(permuted, query) == search_signature(
                reference, query
            ), (cost_model, query)
