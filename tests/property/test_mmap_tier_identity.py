"""Property: a loaded bundle ≡ the in-process engine, byte for byte.

``load(path)`` serves the keyword index and triple store straight off
the bundle's queryable sections — binary-searched term dictionary,
contiguous posting runs, sorted triple runs — without ever
materializing the Python dicts.  The contract is *identity*, not
similarity: for every query, ``search()`` (candidates, costs, SPARQL/SQL
/NL renderings, matching subgraphs, exploration diagnostics) and
``execute()`` answer multisets must equal those of the engine the
constructors build (``KeywordSearchEngine(DataGraph(triples))``, the one
oracle), including after update epochs that overlay deltas on the
read-only mmap postings and through a WAL-tail replay.  Below the
search, every keyword lookup agrees too: a loaded index scores postings
by element id and decodes only the matches it keeps.
"""

import pytest
from hypothesis import given, settings, strategies as st

from test_persistence_identity import (
    DBLP_QUERIES,
    EXAMPLE_QUERIES,
    TAP_QUERIES,
    assert_engines_identical,
    execute_signature,
    search_signature,
)
from test_lookup_memo_invalidation import KEYWORDS, apply, base_and_history, describe
from test_stream_build_identity import PROP_QUERIES, TINY_BUDGET, any_triple

from repro.core.engine import KeywordSearchEngine
from repro.rdf.graph import DataGraph
from repro.rdf.namespace import RDF
from repro.rdf.terms import Literal, URI
from repro.rdf.triples import Triple
from repro.storage import build_bundle_streaming


def _mapped(engine, path):
    """Save the engine, load it back served in place (no WAL)."""
    engine.save(path, force=True)
    return KeywordSearchEngine.load(path, attach_wal=False)


@pytest.mark.parametrize(
    "fixture_name, queries",
    [
        ("example_graph", EXAMPLE_QUERIES),
        ("dblp_small", DBLP_QUERIES),
        ("tap_small", TAP_QUERIES),
    ],
)
def test_mmap_tier_equals_materialized(request, tmp_path, fixture_name, queries):
    graph = request.getfixturevalue(fixture_name)
    reference = KeywordSearchEngine(DataGraph(graph.triples))
    mapped = _mapped(reference, tmp_path / "b.reprobundle")
    assert mapped.index_tier == "mmap" and reference.index_tier == "memory"
    assert len(mapped.store) == len(reference.store)
    assert_engines_identical(reference, mapped, queries)


def test_mmap_tier_on_streamed_bundle(dblp_small, tmp_path):
    """The out-of-core *build* path feeds the out-of-core *serving* path:
    a bundle built under a tiny spill budget (so the merge machinery runs)
    must serve identically through the mmap tier."""
    triples = list(dblp_small.triples)
    path = tmp_path / "s.reprobundle"
    build_bundle_streaming(iter(triples), path, spill_budget_bytes=TINY_BUDGET)
    reference = KeywordSearchEngine(DataGraph(triples))
    mapped = KeywordSearchEngine.load(path, attach_wal=False)
    assert_engines_identical(reference, mapped, DBLP_QUERIES)


def test_mmap_tier_update_epoch_identity(dblp_small, tmp_path):
    """Updates overlay the read-only mmap sections: after identical
    add/remove epochs the loaded engine must still agree with the
    in-process engine that received them through the same maintenance
    calls *and* with an engine rebuilt from scratch on the final triple
    set."""
    triples = list(dblp_small.triples)
    engine = KeywordSearchEngine(DataGraph(triples))
    mapped = _mapped(engine, tmp_path / "u.reprobundle")

    ns = "http://example.org/mmapprop/"
    added = [
        Triple(URI(ns + "p1"), RDF.type, URI("http://example.org/dblp/Article")),
        Triple(
            URI(ns + "p1"),
            URI("http://purl.org/dc/elements/1.1/title"),
            Literal("Mmap Overlay Paper"),
        ),
        Triple(URI(ns + "p1"), URI("http://example.org/dblp/year"), Literal("2008")),
    ]
    removed = triples[40:50]
    for eng in (engine, mapped):
        assert eng.add_triples(added) == len(added)
        assert eng.remove_triples(removed) == len(removed)

    final = [t for t in triples if t not in set(removed)] + added
    rebuilt = KeywordSearchEngine(DataGraph(final))
    queries = DBLP_QUERIES + ("mmap overlay paper", "2008 article")
    assert len(mapped.store) == len(rebuilt.store)
    assert_engines_identical(engine, mapped, queries)
    assert_engines_identical(rebuilt, mapped, queries)


def test_mmap_tier_wal_tail_replay_identity(dblp_small, tmp_path):
    """A WAL tail written by one engine replays identically into a fresh
    load: deltas land in the overlay, the mapped base stays untouched,
    and the post-crash state is the one the in-process engine reaches
    through the same two epochs."""
    triples = list(dblp_small.triples)
    engine = KeywordSearchEngine(DataGraph(triples))
    path = tmp_path / "w.reprobundle"
    engine.save(path)

    ns = "http://example.org/mmapwal/"
    added = [
        Triple(URI(ns + "p2"), RDF.type, URI("http://example.org/dblp/Article")),
        Triple(
            URI(ns + "p2"),
            URI("http://purl.org/dc/elements/1.1/title"),
            Literal("Tail Replayed Paper"),
        ),
    ]
    removed = triples[10:16]
    writer = KeywordSearchEngine.load(path)
    assert writer.add_triples(added) == len(added)
    assert writer.remove_triples(removed) == len(removed)
    writer.delta_log.close()  # release the single-writer lock ("crash")

    mapped = KeywordSearchEngine.load(path, attach_wal=False)
    assert mapped.artifact["wal_epochs_replayed"] == 2
    engine.add_triples(added)
    engine.remove_triples(removed)
    queries = DBLP_QUERIES + ("tail replayed paper",)
    assert_engines_identical(writer, mapped, queries)
    assert_engines_identical(engine, mapped, queries)


# ----------------------------------------------------------------------
# Hypothesis: random corpora through the streamed build + mmap serve
# ----------------------------------------------------------------------


@given(triples=st.lists(any_triple, min_size=1, max_size=25))
@settings(max_examples=25, deadline=None)
def test_mmap_identity_random_corpora(tmp_path_factory, triples):
    tmp = tmp_path_factory.mktemp("mmap-prop")
    path = tmp / "g.reprobundle"
    reference = KeywordSearchEngine(DataGraph(triples))
    build_bundle_streaming(iter(triples), path, spill_budget_bytes=TINY_BUDGET)
    mapped = KeywordSearchEngine.load(path, attach_wal=False)
    assert len(mapped.store) == len(reference.store)
    for query in PROP_QUERIES:
        assert search_signature(mapped, query) == search_signature(reference, query), query
        assert execute_signature(mapped, query) == execute_signature(reference, query), query


# ----------------------------------------------------------------------
# Keyword lookups across updates: base ids beside delta keys
# ----------------------------------------------------------------------

#: Words the multi-term keywords are drawn from: exact, lexicon-related,
#: misspelt (fuzzy) and absent ones of the memo suite's pool.
WORDS = ("student", "pupil", "course", "lecture", "graduate", "council",
         "alice", "notes", "paper", "publication", "studnt", "profesor",
         "handbook", "name", "title", "advisor", "zzzqqq")


@given(
    graph=base_and_history(),
    multi=st.lists(
        st.lists(st.sampled_from(WORDS), min_size=2, max_size=3).map(" ".join),
        max_size=4,
    ),
)
@settings(max_examples=50, deadline=None)
def test_loaded_lookups_equal_constructed_across_updates(tmp_path_factory, graph, multi):
    """Every vocabulary term, the memo suite's keyword pool and random
    multi-term keywords look up alike — scores, order, class contexts —
    on a loaded bundle and on the engine the constructors build, after
    every step of a history that tombstones base elements and re-indexes
    them in the delta: one element is a base id in one step's postings
    and a delta key in the next."""
    base, history = graph
    path = tmp_path_factory.mktemp("lookup-identity") / "g.reprobundle"
    build_bundle_streaming(iter(base), path)
    loaded = KeywordSearchEngine.load(path, attach_wal=False)
    constructed = KeywordSearchEngine(DataGraph(base))

    def agree(where):
        ours, theirs = loaded.keyword_index, constructed.keyword_index
        vocabulary = {*ours._index.iter_terms(), *theirs._index.iter_terms()}
        for keyword in sorted({*KEYWORDS, *multi, *vocabulary}):
            assert describe(ours.lookup(keyword)) == describe(theirs.lookup(keyword)), (
                where, keyword,
            )

    agree("base")
    for step, (add, triple) in enumerate(history):
        for engine in (loaded, constructed):
            apply(engine, add, triple)
        agree((step, add, triple))
