"""Unit tests for the end-to-end engine facade."""

import pytest

from repro.core.engine import KeywordSearchEngine, split_keywords
from repro.datasets.example import EX, running_example_graph
from repro.query.conjunctive import Atom, ConjunctiveQuery
from repro.rdf.namespace import RDF
from repro.rdf.terms import Literal, Variable


@pytest.fixture(scope="module")
def engine(example_graph):
    return KeywordSearchEngine(example_graph, cost_model="c3", k=5)


class TestSplitKeywords:
    def test_whitespace(self):
        assert split_keywords("a b  c") == ["a", "b", "c"]

    def test_quoted_phrase(self):
        assert split_keywords('cimiano "x media" 2006') == ["cimiano", "x media", "2006"]

    def test_unclosed_quote(self):
        assert split_keywords('"abc def') == ["abc def"]

    def test_empty(self):
        assert split_keywords("") == []


class TestSearch:
    def test_returns_ranked_candidates(self, engine):
        result = engine.search("2006 cimiano aifb", k=5)
        assert len(result) >= 1
        assert [c.rank for c in result] == list(range(1, len(result) + 1))
        costs = [c.cost for c in result]
        assert costs == sorted(costs)

    def test_top_query_is_fig1c(self, engine):
        result = engine.search("2006 cimiano aifb", k=5)
        expected_atoms = {
            Atom(RDF.type, Variable("x"), EX.Publication),
            Atom(EX.year, Variable("x"), Literal("2006")),
            Atom(EX.author, Variable("x"), Variable("y")),
            Atom(EX.name, Variable("y"), Literal("P. Cimiano")),
            Atom(EX.worksAt, Variable("y"), Variable("z")),
            Atom(EX.name, Variable("z"), Literal("AIFB")),
        }
        top = result.best().query
        # Compare modulo renaming via isomorphism against the expectation
        # plus the faithful type atoms for y and z.
        from repro.query.isomorphism import queries_isomorphic

        full_expected = ConjunctiveQuery(
            expected_atoms
            | {
                Atom(RDF.type, Variable("y"), EX.Researcher),
                Atom(RDF.type, Variable("z"), EX.Institute),
            }
        )
        assert queries_isomorphic(top, full_expected)

    def test_keyword_list_input(self, engine):
        result = engine.search(["aifb", "2006"], k=3)
        assert len(result) >= 1

    def test_unknown_keyword_ignored_and_reported(self, engine):
        result = engine.search("aifb zzzunknownzzz", k=3)
        assert result.ignored_keywords == ["zzzunknownzzz"]
        assert len(result) >= 1

    def test_removed_settings_are_type_errors(self, example_graph):
        for setting in ("strict_keywords", "max_matches_per_keyword"):
            with pytest.raises(TypeError):
                KeywordSearchEngine(example_graph, **{setting: 1})

    def test_no_keywords_matched(self, engine):
        result = engine.search("zzz yyy", k=3)
        assert len(result) == 0
        assert result.exploration is None

    def test_timings_populated(self, example_graph):
        """The timings contract ``perf/`` and ``/search``'s ``timings_ms``
        read: the step keys in pipeline order, then ``total``, which spans
        every step; the no-match exit times the mapping alone; a memo hit
        hands back the timings of the search it memoized."""
        engine = KeywordSearchEngine(example_graph, k=5, search_cache_size=4)
        result = engine.search("aifb 2006")
        stages = ["keyword_mapping", "augmentation", "exploration", "query_mapping"]
        assert list(result.timings) == stages + ["total"]
        assert all(value >= 0 for value in result.timings.values())
        # Allow for float rounding only: total covers each step's interval.
        assert result.timings["total"] >= (
            sum(result.timings[stage] for stage in stages) - 1e-9
        )

        unmatched = engine.search("zzz yyy")
        assert list(unmatched.timings) == ["keyword_mapping", "total"]
        assert unmatched.timings["total"] >= unmatched.timings["keyword_mapping"]

        assert engine.search("aifb 2006").timings == result.timings
        assert engine.search("zzz yyy").timings == unmatched.timings

    def test_queries_deduplicated(self, engine):
        result = engine.search("2006 cimiano aifb", k=5)
        from repro.query.isomorphism import canonical_form

        forms = [canonical_form(q) for q in result.queries]
        assert len(forms) == len(set(forms))

    def test_candidates_render(self, engine):
        candidate = engine.search("aifb 2006").best()
        assert "SELECT" in candidate.to_sparql()
        assert "FROM Ex" in candidate.to_sql()
        assert candidate.verbalize().endswith(".")


class TestExecution:
    def test_execute_candidate(self, engine):
        result = engine.search("2006 cimiano aifb", k=3)
        answers = engine.execute(result.best())
        assert len(answers) == 1

    def test_execute_plain_query(self, engine):
        query = ConjunctiveQuery([Atom(RDF.type, Variable("x"), EX.Publication)])
        assert len(engine.execute(query)) == 2

    def test_execute_with_limit(self, engine):
        query = ConjunctiveQuery([Atom(RDF.type, Variable("x"), EX.Publication)])
        assert len(engine.execute(query, limit=1)) == 1

    def test_search_and_execute_protocol(self, engine):
        outcome = engine.search_and_execute("2006 cimiano aifb", k=5, min_answers=3)
        assert outcome["answers"]
        assert outcome["queries_used"]
        assert outcome["total_seconds"] >= 0
        assert outcome["computation_seconds"] >= 0


class TestConfiguration:
    def test_cost_model_instance_accepted(self, example_graph):
        from repro.scoring.cost import PathLengthCost

        engine = KeywordSearchEngine(example_graph, cost_model=PathLengthCost())
        assert engine.cost_model.name == "c1"

    def test_shared_indices_reused(self, example_graph, engine):
        other = KeywordSearchEngine(
            example_graph,
            cost_model="c1",
            summary=engine.summary,
            keyword_index=engine.keyword_index,
        )
        assert other.summary is engine.summary
        assert other.keyword_index is engine.keyword_index

    def test_index_stats(self, engine):
        """The Fig. 6b row: each index reports its own size and build
        time, and the summary compresses the data graph."""
        stats = engine.index_stats()
        keyword, summary = stats["keyword_index"], stats["graph_index"]
        assert keyword["terms"] > 0
        assert summary["vertices"] > 0
        assert stats["data_graph"]["triples"] == 21
        assert keyword["build_seconds"] >= 0 and summary["build_seconds"] >= 0
        assert keyword["terms"] == engine.keyword_index.stats()["terms"]
        assert (summary["vertices"], summary["edges"]) == (
            len(engine.summary.vertices),
            len(engine.summary.edges),
        )
        assert summary["summary_ratio"] > 1.0

    def test_guided_is_a_read_only_true(self, example_graph, engine):
        """Every search runs the bounded loop: ``guided=True`` is the one
        value the constructor and ``explore_top_k`` accept, and neither
        the engine's nor a snapshot's ``guided`` can be switched off."""
        from repro.core.exploration import explore_top_k
        from repro.summary.augmentation import augment

        with pytest.raises(TypeError, match="guided=True only"):
            KeywordSearchEngine(example_graph, guided=False)
        plan = augment(engine.summary, engine.keyword_index.lookup_all(["cimiano"]))
        costs = engine.cost_model.element_costs(plan)
        with pytest.raises(TypeError, match="guided=True"):
            explore_top_k(plan, costs, guided=False)
        assert explore_top_k(plan, costs, guided=True).subgraphs
        snapshot = engine.snapshot()
        assert engine.guided is True and snapshot.guided is True
        with pytest.raises(AttributeError):
            engine.guided = False
        with pytest.raises(AttributeError):
            snapshot.guided = False
        assert engine.guided is True and snapshot.guided is True


def _memoized(first, second):
    """True when ``second`` was served from the search-result cache.

    Cache hits are container-fresh copies sharing the originally computed
    internals — same exploration diagnostics object, same candidate
    objects, and the original timings values.
    """
    return (
        second is not first
        and second.exploration is first.exploration
        and second.timings == first.timings
        and all(a is b for a, b in zip(second.candidates, first.candidates))
    )


class TestSearchResultCache:
    def test_disabled_by_default(self, example_graph):
        engine = KeywordSearchEngine(example_graph, k=5)
        first = engine.search("aifb 2006")
        assert not _memoized(first, engine.search("aifb 2006"))

    def test_repeated_query_served_from_cache(self, example_graph):
        engine = KeywordSearchEngine(example_graph, k=5, search_cache_size=8)
        first = engine.search("aifb 2006")
        assert _memoized(first, engine.search("aifb 2006"))
        # Different effective parameters miss.
        assert not _memoized(first, engine.search("aifb 2006", k=3))
        assert not _memoized(first, engine.search("aifb 2006", dmax=4))

    def test_explicit_matches_bypass_cache(self, example_graph):
        engine = KeywordSearchEngine(example_graph, k=5, search_cache_size=8)
        first = engine.search("aifb")
        override = engine.keyword_index.lookup_all(["aifb"])
        supplied = engine.search_on_snapshot(
            engine.snapshot(), "aifb", matches=override
        )
        assert not _memoized(first, supplied)
        # ... and never pollute it.
        assert _memoized(first, engine.search("aifb"))
        stats = engine.cache_stats()["search_results"]
        assert (stats["hits"], stats["misses"]) == (1, 1)

    def test_caller_mutation_cannot_poison_the_cache(self, example_graph):
        engine = KeywordSearchEngine(example_graph, k=5, search_cache_size=8)
        first = engine.search("aifb 2006")
        assert first.candidates
        first.candidates.clear()
        first.timings.clear()
        again = engine.search("aifb 2006")
        assert again.candidates
        assert "total" in again.timings

    def test_updates_invalidate_cache(self, example_graph):
        engine = KeywordSearchEngine(example_graph, k=5, search_cache_size=8)
        first = engine.search("aifb 2006")
        triple = next(iter(engine.graph.triples))
        engine.remove_triples([triple])
        after_remove = engine.search("aifb 2006")
        assert not _memoized(first, after_remove)
        engine.add_triples([triple])
        restored = engine.search("aifb 2006")
        assert not _memoized(first, restored)
        assert not _memoized(after_remove, restored)
        # Re-adding restored the data: results are equal, objects fresh.
        assert [c.cost for c in restored.candidates] == [
            c.cost for c in first.candidates
        ]

    def test_lru_eviction(self, example_graph):
        engine = KeywordSearchEngine(example_graph, k=5, search_cache_size=1)
        first = engine.search("aifb")
        engine.search("2006")  # evicts "aifb"
        assert not _memoized(first, engine.search("aifb"))


class TestPlanResults:
    """Finished searches live on their plans, mapped as far as asked."""

    def test_concurrent_readers_extend_one_result(self, example_graph):
        """Eight threads mix ``execute_ranked`` at every rank (and one
        past the last) with whole searches of one query.  Each round
        starts from a fresh kept result mapped to rank 1 only, so the
        readers race to extend the same one: every candidate is the one
        a fresh engine ranks there."""
        import random
        import sys
        import threading

        query, k = "2006 cimiano aifb", 5
        engine = KeywordSearchEngine(example_graph, k=k, search_cache_size=16)
        want = [c.json_fragment() for c in KeywordSearchEngine(example_graph, k=k).search(query)]
        assert len(want) > 1
        plans = engine.summary.exploration_substrate().plans
        rounds = 20

        def fresh_result():
            plans.clear()
            engine.execute_ranked(query, rank=1, limit=0)

        barrier = threading.Barrier(8, action=fresh_result, timeout=60)
        wrong = []

        def reader(seed):
            rng = random.Random(seed)
            try:
                for _ in range(rounds):
                    barrier.wait()
                    for _ in range(10):
                        rank = rng.randint(0, k + 1)
                        if rank == 0:
                            got = [c.json_fragment() for c in engine.search(query)]
                            if got != want:
                                wrong.append(("search", got))
                            continue
                        candidate, _, _ = engine.execute_ranked(query, rank=rank, limit=1)
                        expected = want[rank - 1] if rank <= len(want) else None
                        if (candidate and candidate.json_fragment()) != expected:
                            wrong.append((rank, candidate))
            except Exception as exc:  # a reader that dies breaks the barrier
                wrong.append(exc)
                barrier.abort()

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=reader, args=(i,)) for i in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert wrong == []
        stats = engine.cache_stats()["search_results"]
        assert stats["hits"] > 0 and stats["size"] <= stats["maxsize"]

    def test_preferred_predicate_changes_move_the_summary_version(self, example_graph):
        """The queries a result holds are written with the data's
        preferred type and subclass predicates.  A second spelling of
        every type and subclass fact changes both and nothing the summary
        aggregates (nor any match); the summary version moves anyway, so
        the kept result, mapped with the old ones, is not served."""
        from repro.rdf.graph import DataGraph
        from repro.rdf.namespace import RDFS
        from repro.rdf.terms import URI
        from repro.rdf.triples import Triple

        engine = KeywordSearchEngine(
            DataGraph(example_graph.triples), k=5, search_cache_size=16
        )
        query = "publication researcher"
        before = [c.json_fragment() for c in engine.search(query)]
        version = engine.summary.snapshot_key
        variants = {RDF.type: URI("type"), RDFS.subClassOf: URI("subclass")}
        engine.add_triples([
            Triple(t.subject, variants[t.predicate], t.object)
            for t in example_graph.triples
            if t.predicate in variants
        ])
        assert engine.graph.preferred_type_predicate == URI("type")
        assert engine.summary.snapshot_key != version
        fresh = KeywordSearchEngine(DataGraph(engine.graph.triples), k=5)
        after = [c.json_fragment() for c in engine.search(query)]
        assert after == [c.json_fragment() for c in fresh.search(query)] != before


class TestFilterSearchParameters:
    def test_k_and_dmax_threaded_to_search(self, example_graph, monkeypatch):
        engine = KeywordSearchEngine(example_graph, k=5)
        captured = {}
        original = KeywordSearchEngine.search_on_snapshot

        def spy(self, *args, **kwargs):
            captured.update(kwargs)
            return original(self, *args, **kwargs)

        monkeypatch.setattr(KeywordSearchEngine, "search_on_snapshot", spy)
        engine.search_with_filters("cimiano before 2007", k=3, dmax=6)
        assert captured["k"] == 3
        assert captured["dmax"] == 6

    def test_tight_dmax_constrains_filtered_search(self, example_graph):
        engine = KeywordSearchEngine(example_graph, k=5)
        wide = engine.search_with_filters("cimiano before 2007")
        narrow = engine.search_with_filters("cimiano before 2007", dmax=0)
        assert len(narrow) <= len(wide)


class TestEmptyQueryRejected:
    """An empty keyword query is an input error, not "zero candidates"."""

    def test_empty_string(self, engine):
        with pytest.raises(ValueError, match="empty keyword query"):
            engine.search("")

    def test_whitespace_only_string(self, engine):
        with pytest.raises(ValueError, match="empty keyword query"):
            engine.search("   \t ")

    def test_empty_list(self, engine):
        with pytest.raises(ValueError, match="empty keyword query"):
            engine.search([])

    def test_all_whitespace_keywords(self, engine):
        with pytest.raises(ValueError, match="empty keyword query"):
            engine.search(["  ", "\t"])

    def test_nonempty_query_still_works(self, engine):
        assert engine.search("cimiano").keywords == ["cimiano"]


class TestSnapshotPipeline:
    """search == snapshot acquisition + pure stages on that snapshot."""

    def test_search_on_snapshot_matches_search(self, engine):
        snapshot = engine.snapshot()
        direct = engine.search("2006 cimiano aifb", k=5)
        via_snapshot = engine.search_on_snapshot(snapshot, "2006 cimiano aifb", k=5)
        assert [str(c.query) for c in direct] == [str(c.query) for c in via_snapshot]
        assert [c.cost for c in direct] == [c.cost for c in via_snapshot]

    def test_snapshot_carries_engine_defaults(self, engine):
        snapshot = engine.snapshot()
        assert snapshot.k == engine.k
        assert snapshot.dmax == engine.dmax
        assert snapshot.guided == engine.guided
        assert snapshot.key == (
            engine.summary.snapshot_key,
            engine.keyword_index.snapshot_key,
        )

    def test_cache_stats_shape(self, example_graph):
        engine = KeywordSearchEngine(example_graph, k=5, search_cache_size=4)
        engine.search("cimiano")
        engine.search("cimiano")
        stats = engine.cache_stats()
        assert stats["search_results"]["hits"] == 1
        assert stats["search_results"]["misses"] == 1
        assert "keyword_lookups" in stats
