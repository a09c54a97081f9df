"""Unit tests for incremental offline-index maintenance (IndexManager)."""

import pytest

from repro.core.engine import KeywordSearchEngine
from repro.datasets.example import EX, running_example_graph
from repro.rdf.graph import DataGraph
from repro.rdf.namespace import RDF
from repro.rdf.terms import Literal, URI
from repro.rdf.triples import Triple


@pytest.fixture()
def engine():
    return KeywordSearchEngine(running_example_graph(), cost_model="c3", k=10)


def test_added_triples_become_searchable(engine):
    assert not engine.search("freshkeyword").candidates
    entity = URI("http://example.org/aifb/newPub")
    added = engine.add_triples(
        [
            Triple(entity, RDF.type, EX.Publication),
            Triple(entity, EX.title, Literal("freshkeyword")),
        ]
    )
    assert added == 2
    result = engine.search("freshkeyword")
    assert result.candidates


def test_removed_triples_stop_matching(engine):
    assert engine.search("2006").candidates
    removed = engine.remove_triples(
        [t for t in engine.graph.triples if "2006" in t.n3()]
    )
    assert removed > 0
    assert not engine.search("2006").candidates


def test_update_propagates_to_store_and_answers(engine):
    entity = URI("http://example.org/aifb/newPub")
    triples = [
        Triple(entity, RDF.type, EX.Publication),
        Triple(entity, EX.year, Literal("2031")),
    ]
    engine.add_triples(triples)
    assert all(t in engine.store for t in triples)
    outcome = engine.search_and_execute("2031", min_answers=1)
    assert outcome["answers"]
    engine.remove_triples(triples)
    assert not any(t in engine.store for t in triples)


def test_summary_graph_updates_in_place_without_rebuild(engine):
    summary_before = engine.summary
    entity = URI("http://example.org/aifb/someone")
    engine.add_triples([Triple(entity, RDF.type, EX.Researcher)])
    assert engine.summary is summary_before  # same object, mutated
    rebuilt = KeywordSearchEngine(
        DataGraph(engine.graph.triples), cost_model="c3", k=10
    )
    assert {v.key: v.agg_count for v in engine.summary.vertices} == {
        v.key: v.agg_count for v in rebuilt.summary.vertices
    }
    assert {e.key: e.agg_count for e in engine.summary.edges} == {
        e.key: e.agg_count for e in rebuilt.summary.edges
    }


def test_new_class_and_relation_appear_in_summary(engine):
    boat = URI("http://example.org/aifb/Boat")
    skipper = URI("http://example.org/aifb/skipper1")
    sails = URI("http://example.org/aifb/sails")
    engine.add_triples(
        [
            Triple(skipper, RDF.type, boat),
            Triple(skipper, sails, skipper),
        ]
    )
    assert engine.summary.has_element(("class", boat))
    assert engine.search("boat").candidates
    assert engine.search("sails").candidates


def test_retyping_entity_moves_summary_projections(engine):
    """Typing a previously typed entity with an extra class must reproject
    its relation edges — the core hard case of incremental maintenance."""
    extra = Triple(EX.pub1, RDF.type, EX.Article)
    engine.add_triples([extra])
    rebuilt = KeywordSearchEngine(DataGraph(engine.graph.triples), cost_model="c3", k=10)
    assert {e.key: e.agg_count for e in engine.summary.edges} == {
        e.key: e.agg_count for e in rebuilt.summary.edges
    }
    engine.remove_triples([extra])
    rebuilt2 = KeywordSearchEngine(DataGraph(engine.graph.triples), cost_model="c3", k=10)
    assert {e.key: e.agg_count for e in engine.summary.edges} == {
        e.key: e.agg_count for e in rebuilt2.summary.edges
    }


def test_duplicate_adds_and_absent_removes_are_noops(engine):
    triples = list(engine.graph.triples)
    version = engine.summary.version
    assert engine.add_triples(triples[:3]) == 0
    ghost = Triple(URI("e:ghost"), URI("e:p"), URI("e:q"))
    assert engine.remove_triples([ghost]) == 0
    assert engine.summary.version == version


@pytest.mark.parametrize("source", ["constructed", "loaded"])
def test_a_batch_that_removes_and_re_adds_a_triple_keeps_it(source, tmp_path):
    """Removes come first: a present triple a batch both removes and adds
    is still there afterwards, and the batch toggled nothing for it; an
    absent one it both removes and adds is added."""
    engine = KeywordSearchEngine(running_example_graph(), k=10)
    if source == "loaded":
        engine.save(tmp_path / "a.reprobundle")
        engine = KeywordSearchEngine.load(tmp_path / "a.reprobundle", attach_wal=False)
    present = next(t for t in engine.graph.triples if "2006" in t.n3())
    absent = Triple(EX.pub2URI, EX.year, Literal("2007"))
    changed = engine.index_manager.apply_batch(
        adds=[present, absent], removes=[present, absent]
    )
    assert changed == 1
    assert present in set(engine.graph.triples) and absent in set(engine.graph.triples)
    fresh = KeywordSearchEngine(DataGraph(engine.graph.triples), k=10)
    for query in ("2006", "2007"):
        assert [c.json_fragment() for c in engine.search(query)] == [
            c.json_fragment() for c in fresh.search(query)
        ], query


def test_cost_cache_invalidated_on_update(engine):
    """Search → update → search must use fresh costs, not the cached table."""
    before = engine.search("publication")
    best_before = before.best()
    # Add many researchers: Researcher aggregation grows, its C2/C3 cost drops.
    new = [
        Triple(URI(f"http://example.org/aifb/r{i}"), RDF.type, EX.Researcher)
        for i in range(50)
    ]
    engine.add_triples(new)
    after = engine.search("researcher")
    rebuilt = KeywordSearchEngine(DataGraph(engine.graph.triples), cost_model="c3", k=10)
    expected = rebuilt.search("researcher")
    assert [round(c.cost, 9) for c in after.candidates] == [
        round(c.cost, 9) for c in expected.candidates
    ]
    assert best_before is not None


def test_statistics_invalidated_on_update(engine):
    stats = engine.evaluator._stats
    assert stats.predicate_count(EX.year) >= 1  # populate the cache
    extra = Triple(URI("http://example.org/aifb/px"), EX.year, Literal("1999"))
    engine.add_triples([extra])
    assert stats.predicate_count(EX.year) == engine.store.predicate_cardinality(EX.year)


def test_strict_mode_batch_failure_rolls_back(engine):
    """A strict-mode violation mid-batch must leave the engine untouched:
    no partial data-graph mutation, no index drift, no leaked role refs."""
    from repro.rdf.graph import GraphIntegrityError

    strict_engine = KeywordSearchEngine(
        DataGraph(running_example_graph().triples, strict=True),
        cost_model="c3",
        k=10,
    )
    good = Triple(URI("e:new"), URI("e:knows"), URI("e:other"))
    # EX.Publication is a class; using it as a relation object violates
    # Definition 1 and raises in strict mode.
    bad = Triple(URI("e:new"), URI("e:knows"), EX.Publication)
    triples_before = strict_engine.graph.triples
    stats_before = strict_engine.graph.stats()

    with pytest.raises(GraphIntegrityError):
        strict_engine.add_triples([good, bad])

    assert strict_engine.graph.triples == triples_before
    assert strict_engine.graph.stats() == stats_before
    assert good not in strict_engine.store
    # The engine still works and accepts valid batches afterwards.
    assert strict_engine.add_triples([good]) == 1
    assert good in strict_engine.store


def test_strict_loaded_bundle_rejects_a_batch_atomically(tmp_path):
    """The loaded twin of the test above: a bundle saved from a strict
    graph, served with its delta log, refuses a ``[good, bad]`` batch
    whole — the first conflict raises, and the graph, its store, the
    epoch and the log are as they were."""
    from repro.rdf.graph import GraphIntegrityError

    path = tmp_path / "strict.reprobundle"
    KeywordSearchEngine(DataGraph(running_example_graph().triples, strict=True)).save(path)
    loaded = KeywordSearchEngine.load(path)
    graph, log = loaded.graph, loaded.delta_log
    assert graph.strict and log is not None
    first = Triple(URI("e:first"), URI("e:knows"), URI("e:other"))
    assert loaded.add_triples([first]) == 1  # the log holds a committed entry

    good = Triple(URI("e:new"), URI("e:knows"), URI("e:other"))
    bad = Triple(URI("e:new"), URI("e:knows"), EX.Publication)  # a class as object
    relaxed = DataGraph([*running_example_graph().triples, first, good])
    relaxed.add(bad)
    expected = relaxed.conflicts[-1]

    def state():
        return (
            graph.stats(), list(graph.conflicts), len(loaded.store),
            loaded.index_manager.epoch, log.committed_entries(),
        )

    before = state()
    with pytest.raises(GraphIntegrityError) as raised:
        loaded.add_triples([good, bad])
    assert str(raised.value) == expected
    assert state() == before
    assert good not in loaded.store and good not in graph
    assert loaded.add_triples([good]) == 1
    assert good in loaded.store
    assert len(log.committed_entries()) == len(before[-1]) + 1
    assert loaded.index_manager.epoch == before[3] + 1


def test_a_loaded_batch_does_work_in_proportion_to_its_terms(tmp_path, monkeypatch):
    """A steady update batch on a loaded bundle (ten new entities typed
    and named in, the ten of five batches ago out) bisects the term table
    about once per distinct term (the table remembers what it looked up),
    probes the runs a few times per term, and never enumerates the graph."""
    from repro.datasets.lubm import UB, LubmConfig, iter_lubm_triples
    from repro.storage import mmap_tier
    from repro.storage.graph_view import MmapDataGraph
    from repro.storage.mmap_tier import MmapTermTable, MmapTripleTier

    def batch(index):
        entities = [URI(f"http://example.org/steady/e{index}x{j}") for j in range(10)]
        return [
            t for j, e in enumerate(entities)
            for t in (Triple(e, RDF.type, UB.GraduateStudent),
                      Triple(e, UB.name, Literal(f"zqx{index}n{j}")))
        ]

    path = tmp_path / "lubm.reprobundle"
    KeywordSearchEngine(DataGraph(iter_lubm_triples(LubmConfig(universities=1)))).save(path)
    loaded = KeywordSearchEngine.load(path, attach_wal=False)
    for index in range(6):
        loaded.index_manager.apply_batch(adds=batch(index), removes=batch(index - 5))

    calls = {"term_bisects": 0, "count_keys": 0}
    find_sorted, count_keys = mmap_tier._find_sorted, MmapTripleTier.count_keys

    def counted_find(permutation, key_of, probe):
        if getattr(key_of, "__func__", None) is MmapTermTable._record_key:
            calls["term_bisects"] += 1
        return find_sorted(permutation, key_of, probe)

    def counted_count(self, *keys):
        calls["count_keys"] += 1
        return count_keys(self, *keys)

    def no_enumeration(self):
        raise AssertionError("an update enumerated the graph")

    monkeypatch.setattr(mmap_tier, "_find_sorted", counted_find)
    monkeypatch.setattr(MmapTripleTier, "count_keys", counted_count)
    monkeypatch.setattr(MmapDataGraph, "__iter__", no_enumeration)
    adds, removes = batch(6), batch(1)
    assert loaded.index_manager.apply_batch(adds=adds, removes=removes) == 40
    terms = {term for t in adds + removes for term in t}  # 43
    assert calls["term_bisects"] <= len(terms) + 10, calls
    assert calls["count_keys"] <= 3 * len(terms), calls


def test_an_engine_serves_its_graphs_one_store(engine, tmp_path):
    """Constructed, loaded and maintained alike, the store queries run on
    is the data graph's own: an update reaches it through the graph, and
    there is no second copy to keep in step."""
    path = tmp_path / "ex.reprobundle"
    engine.save(path)
    loaded = KeywordSearchEngine.load(path, attach_wal=False)
    added = [
        Triple(URI("http://example.org/aifb/newPub"), RDF.type, EX.Publication),
        Triple(URI("http://example.org/aifb/newPub"), EX.author, EX.re2URI),
    ]
    for subject in (engine, loaded):
        assert subject.store is subject.graph.store is subject.snapshot().store
        assert subject.evaluator._store is subject.store
        subject.add_triples(added)
        assert subject.store is subject.graph.store is subject.snapshot().store
        assert all(t in subject.store for t in added)
        assert len(subject.store) == len(subject.graph) == len(engine.graph)
        assert subject.execute(subject.search("cimiano publication").candidates[0].query)
    engine.remove_triples(added)
    assert not any(t in engine.store for t in added)
    assert len(engine.store) == len(engine.graph)


def test_strict_add_is_atomic():
    """A rejected strict add leaves no partial role refcounts behind,
    and the graph's store does not hold the refused triple."""
    from repro.rdf.graph import GraphIntegrityError

    graph = DataGraph(strict=True)
    graph.add(Triple(URI("e:a"), RDF.type, URI("e:C")))
    refused = Triple(URI("e:b"), URI("e:knows"), URI("e:C"))  # class as entity
    with pytest.raises(GraphIntegrityError):
        graph.add(refused)
    assert URI("e:b") not in graph.entities
    # No role count moved: e:b holds none, e:C only its class role.
    assert graph._roles.counts(URI("e:b")) == (0, 0, 0)
    assert graph._roles.counts(URI("e:C")) == (1, 0, 0)
    assert refused not in graph.store and len(graph.store) == 1
    assert list(graph.store.match()) == [Triple(URI("e:a"), RDF.type, URI("e:C"))]
    assert graph.store.count(None, URI("e:knows"), None) == 0


def test_search_rejects_invalid_k(engine):
    with pytest.raises(ValueError):
        engine.search("aifb", k=0)
    with pytest.raises(ValueError):
        engine.search("aifb", k=-1)
    with pytest.raises(ValueError):
        engine.search("aifb", dmax=-1)


def test_search_honors_explicit_small_k(engine):
    """k=1 must not silently fall back to the constructor default."""
    result = engine.search("2006 cimiano", k=1)
    assert len(result.candidates) <= 1


def test_search_dmax_zero_registers_seeds_only(engine):
    result = engine.search("publication", dmax=0)
    assert isinstance(result.candidates, list)
