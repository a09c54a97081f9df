"""Unit tests for the serving layer (`repro.service`).

The acceptance bar: `EngineService.search_many` returns results
byte-identical to sequential `engine.search` calls on the same snapshot;
admission control and per-query deadlines behave as documented; epoch
hooks and listener ordering on the IndexManager hold.
"""

import threading

import pytest

from repro.core.engine import KeywordSearchEngine
from repro.datasets.example import EX
from repro.rdf.terms import Literal, URI
from repro.rdf.triples import Triple
from repro.service import AdmissionError, EngineService, Request


def _render(result):
    """A byte-comparable rendering of a SearchResult."""
    return (
        tuple(result.keywords),
        tuple(result.ignored_keywords),
        tuple((c.rank, c.cost, str(c.query), c.to_sparql()) for c in result.candidates),
    )


@pytest.fixture()
def engine(example_graph):
    # Fresh graph per test: the update tests mutate it, and the
    # session-scoped fixture is shared with the whole suite.
    from repro.rdf.graph import DataGraph

    return KeywordSearchEngine(DataGraph(example_graph.triples), k=5)


@pytest.fixture()
def service(engine):
    svc = EngineService(engine)
    yield svc
    svc.close()


QUERIES = ["cimiano 2006", "aifb", "2006 article", "cimiano 2006", "publication"]


class TestSearchMany:
    def test_byte_identical_to_sequential(self, engine, service):
        snapshot = engine.snapshot()
        expected = [
            _render(engine.search_on_snapshot(snapshot, q)) for q in QUERIES
        ]
        outcomes = service.search_many(QUERIES)
        assert [o.status for o in outcomes] == ["ok"] * len(QUERIES)
        assert [o.index for o in outcomes] == list(range(len(QUERIES)))
        assert [_render(o.result) for o in outcomes] == expected

    def test_single_search_matches_engine(self, engine, service):
        assert _render(service.search("cimiano 2006")) == _render(
            engine.search("cimiano 2006")
        )

    def test_empty_batch(self, service):
        assert service.search_many([]) == []

    def test_per_query_error_isolated(self, service):
        outcomes = service.search_many(["cimiano", "   "])
        assert outcomes[0].status == "ok"
        assert outcomes[1].status == "error"
        assert isinstance(outcomes[1].error, ValueError)

    def test_expired_deadline_skips_dispatch(self, service):
        outcomes = service.search_many(QUERIES, request=Request.new(timeout=0.0))
        assert {o.status for o in outcomes} == {"timeout"}
        assert all(o.result is None for o in outcomes)


def test_search_many_is_one_snapshot_in_order(engine):
    """A batch runs member by member on the calling thread: outcomes in
    input order, every member against the one snapshot pinned before the
    first (a writer that arrives mid-batch waits for the read hold), and
    a member whose turn comes past the deadline is ``timeout`` without
    running."""
    import time as _time

    real = engine.search_on_snapshot
    running = threading.Event()
    seen = []

    def recording(snapshot, query, **kwargs):
        running.set()
        if query == "aifb":
            _time.sleep(0.6)  # past the batch deadline, writer queued by now
            seen.append(("writers waiting", svc._rw._writers_waiting))
        seen.append((query, snapshot.summary_version, snapshot.index_version))
        return real(snapshot, query, **kwargs)

    engine.search_on_snapshot = recording
    svc = EngineService(engine)
    pinned = (engine.summary.snapshot_key, engine.keyword_index.snapshot_key)

    def writer():
        running.wait(timeout=30)
        svc.update(adds=[Triple(EX["pub9"], EX["title"], Literal("zzzmidbatch"))])

    thread = threading.Thread(target=writer, daemon=True)
    thread.start()
    try:
        queries = ["cimiano 2006", "aifb", "2006 article", "publication"]
        outcomes = svc.search_many(queries, request=Request.new(timeout=0.5))
        thread.join(timeout=30)
        assert not thread.is_alive()
        assert [o.index for o in outcomes] == [0, 1, 2, 3]
        assert [o.query for o in outcomes] == queries
        assert [o.status for o in outcomes] == ["ok", "ok", "timeout", "timeout"]
        assert seen == [
            ("cimiano 2006", *pinned),
            ("writers waiting", 1),
            ("aifb", *pinned),
        ]
        # The update the batch held off committed right after it.
        assert engine.index_manager.epoch == 1
        assert engine.keyword_index.snapshot_key != pinned[1]
        assert svc.search_many(["zzzmidbatch"])[0].result.candidates
    finally:
        svc.close()


class TestAdmissionControl:
    def test_batch_beyond_bound_rejected(self, engine):
        svc = EngineService(engine, max_pending=3)
        try:
            with pytest.raises(AdmissionError):
                svc.search_many(QUERIES)  # 5 > 3
            # The failed admission released its slots: smaller batches pass.
            assert all(o.ok for o in svc.search_many(QUERIES[:3]))
        finally:
            svc.close()

    def test_rejections_counted(self, engine):
        svc = EngineService(engine, max_pending=1)
        try:
            with pytest.raises(AdmissionError):
                svc.search_many(QUERIES[:2])
            assert svc.stats()["queries"]["rejected"] == 2
        finally:
            svc.close()


class TestQueueWait:
    """max_queue_wait bounds waiting separately from execution."""

    def test_histogram_surfaced_in_stats(self, service):
        for q in QUERIES:
            service.search(q)
        queries = service.stats()["queries"]
        assert queries["queue_wait_p50_ms"] >= 0
        assert queries["queue_wait_p99_ms"] >= queries["queue_wait_p50_ms"]
        assert queries["queue_wait_max_ms"] >= queries["queue_wait_p99_ms"]

    def test_search_rejected_behind_a_writer(self, engine):
        svc = EngineService(engine, max_queue_wait=0.05)
        try:
            svc._rw.acquire_write()  # an update epoch hogging the engine
            try:
                with pytest.raises(AdmissionError):
                    svc.search("cimiano 2006")
            finally:
                svc._rw.release_write()
            assert svc.stats()["queries"]["rejected"] == 1
            # Once the writer is gone, the same search is admitted.
            assert svc.search("cimiano 2006") is not None
        finally:
            svc.close()

    def test_every_read_is_bounded_and_recorded_behind_a_writer(self, engine):
        """`/execute` and batch `/search` wait for the read lock under
        the same bound as a single search, and the wait is recorded."""
        import time as _time

        svc = EngineService(engine, max_queue_wait=0.05)
        reads = (
            lambda: svc.search("cimiano 2006"),
            lambda: svc.execute_ranked("cimiano 2006"),
            lambda: svc.search_many(["cimiano 2006", "aifb"]),
        )
        try:
            svc._rw.acquire_write()  # an update epoch hogging the engine
            try:
                for read in reads:
                    started = _time.monotonic()
                    with pytest.raises(AdmissionError):
                        read()
                    assert _time.monotonic() - started < 0.5
            finally:
                svc._rw.release_write()
            queries = svc.stats()["queries"]
            assert queries["rejected"] == 4  # the batch's two queries count
            assert queries["completed"] == queries["errors"] == 0

            held = threading.Event()

            def hold_write():
                svc._rw.acquire_write()
                held.set()
                _time.sleep(0.1)
                svc._rw.release_write()

            # Unbounded, the reads wait the epoch out, and the wait is
            # recorded from arrival.
            svc.max_queue_wait = None
            writer = threading.Thread(target=hold_write)
            writer.start()
            assert held.wait(timeout=5)
            for read in reads:
                assert read() is not None
            writer.join()
            assert svc.stats()["queries"]["queue_wait_max_ms"] >= 50
        finally:
            svc.close()
        for read in reads:
            with pytest.raises(RuntimeError, match="closed"):
                read()

    def test_pool_queue_wait_sheds_without_execution(self, engine):
        import time as _time

        real = engine.search_on_snapshot
        calls = []

        def slow(snapshot, query, **kwargs):
            calls.append(query)
            if query == "cimiano 2006":
                _time.sleep(0.3)
            return real(snapshot, query, **kwargs)

        engine.search_on_snapshot = slow
        svc = EngineService(engine, max_queue_wait=0.05)
        try:
            outcomes = svc.search_many(["cimiano 2006", "aifb"])
            assert outcomes[0].ok
            # The second query waited > max_queue_wait behind the slow
            # first one and was shed from the queue without executing.
            assert outcomes[1].status == "timeout"
            assert "aifb" not in calls
            queries = svc.stats()["queries"]
            assert queries["timeouts"] == 1
            assert queries["queue_wait_max_ms"] >= 50
        finally:
            svc.close()

    def test_unbounded_by_default(self, engine):
        svc = EngineService(engine)
        try:
            assert svc.max_queue_wait is None
            assert all(o.ok for o in svc.search_many(QUERIES))
        finally:
            svc.close()


class TestUpdates:
    def test_update_visible_to_later_searches(self, engine, service):
        before = service.search("zzznewthing")
        assert not before.candidates
        pub = URI("http://example.org/pubNew")
        label = URI("http://www.w3.org/2000/01/rdf-schema#label")
        report = service.update(
            adds=[Triple(pub, label, Literal("zzznewthing"))]
        )
        assert report["changed"] == 1
        assert report["epoch"] == engine.index_manager.epoch
        after = service.search("zzznewthing")
        assert after.keywords == ["zzznewthing"]
        assert not after.ignored_keywords

    def test_direct_engine_update_also_serialized(self, engine, service):
        """add_triples bypassing the service still runs inside an epoch:
        the hook-held write lock must be released afterwards (a stuck lock
        would hang this test's subsequent search)."""
        pub = URI("http://example.org/pubDirect")
        label = URI("http://www.w3.org/2000/01/rdf-schema#label")
        engine.add_triples([Triple(pub, label, Literal("directupdate"))])
        assert service.search("directupdate").keywords == ["directupdate"]
        assert service.stats()["queries"]["updates"] == 1

    def test_concurrent_searches_during_update(self, engine, service):
        """A writer racing a stream of readers: everything completes and
        every result is internally consistent (no exception, no hang)."""
        pub = URI("http://example.org/pubRace")
        label = URI("http://www.w3.org/2000/01/rdf-schema#label")
        stop = threading.Event()
        failures = []

        def reader():
            while not stop.is_set():
                try:
                    service.search("cimiano 2006")
                except Exception as exc:  # noqa: BLE001
                    failures.append(exc)
                    return

        threads = [threading.Thread(target=reader, daemon=True) for _ in range(4)]
        for t in threads:
            t.start()
        try:
            for i in range(5):
                service.update(adds=[Triple(pub, label, Literal(f"race {i}"))])
        finally:
            stop.set()
        for t in threads:
            t.join(timeout=30)
            assert not t.is_alive(), "reader wedged against the writer"
        assert failures == []
        assert service.stats()["queries"]["updates"] == 5


class TestExecuteRanked:
    def test_answers_and_timings(self, engine, service):
        candidate, answers, timings = service.execute_ranked(
            "2006 cimiano aifb", rank=1, limit=None
        )
        result = engine.search("2006 cimiano aifb")
        assert candidate.query == result.best().query
        assert set(answers) == set(engine.execute(result.best()))
        assert list(timings) == [*result.timings, "execute"]
        assert timings["execute"] >= 0

    def test_limit_rule(self, service):
        full = service.execute_ranked("publication", limit=None)[1]
        assert len(full) >= 2
        assert service.execute_ranked("publication", limit=0)[1] == []
        assert len(service.execute_ranked("publication", limit=1)[1]) == 1
        with pytest.raises(ValueError):
            service.execute_ranked("publication", limit=-1)

    def test_rank_out_of_range(self, service):
        candidate, answers, _ = service.execute_ranked("2006 cimiano aifb", rank=99)
        assert candidate is None and answers == []
        with pytest.raises(ValueError):
            service.execute_ranked("2006 cimiano aifb", rank=0)
        # The rank past the last interpretation ran a whole search: it
        # completed (as on the dispatch tier); only the bad rank is an error.
        stats = service.stats()["queries"]
        assert stats["completed"] == 1 and stats["errors"] == 1


class TestStats:
    def test_counters_and_percentiles(self, service):
        for q in QUERIES:
            service.search(q)
        stats = service.stats()
        assert stats["queries"]["completed"] == len(QUERIES)
        assert stats["queries"]["qps"] > 0
        assert stats["queries"]["p50_ms"] >= 0
        assert stats["queries"]["p99_ms"] >= stats["queries"]["p50_ms"]
        assert stats["queries"]["inflight"] == 0
        assert "keyword_lookups" in stats["caches"]
        assert stats["snapshot"]["epoch"] == 0
        assert stats["data"]["triples"] > 0

    def test_keyword_lookup_invalidations_reported(self, service):
        """`/stats` shows how selective an epoch was: the update below
        names a new value "Cimiano Lab", so of the two memoized keywords
        only "cimiano" is dropped and looked up again."""
        service.search("cimiano 2006")
        before = service.stats()["caches"]["keyword_lookups"]
        assert (before["misses"], before["invalidated"]) == (2, 0)
        service.update(
            adds=[Triple(EX.inst2URI, EX.name, Literal("Cimiano Lab"))]
        )
        service.search("cimiano 2006")
        after = service.stats()["caches"]["keyword_lookups"]
        assert after["invalidated"] == 1
        assert (after["hits"], after["misses"]) == (before["hits"] + 1, 3)

    def test_search_cache_rates_reported(self, example_graph):
        engine = KeywordSearchEngine(example_graph, k=5, search_cache_size=8)
        svc = EngineService(engine)
        try:
            svc.search("cimiano 2006")
            svc.search("cimiano 2006")
            cache = svc.stats()["caches"]["search_results"]
            assert cache["hits"] == 1
            assert cache["misses"] == 1
        finally:
            svc.close()


class TestSnapshot:
    def test_snapshot_pins_versions(self, engine):
        snap = engine.snapshot()
        assert snap.key == (
            engine.summary.snapshot_key,
            engine.keyword_index.snapshot_key,
        )
        assert snap.is_current()
        pub = URI("http://example.org/pubSnap")
        label = URI("http://www.w3.org/2000/01/rdf-schema#label")
        engine.add_triples([Triple(pub, label, Literal("snapshotted"))])
        assert not snap.is_current()
        assert engine.snapshot().is_current()

    def test_substrate_pinned_eagerly(self, engine):
        snap = engine.snapshot()
        assert snap.substrate is engine.summary.exploration_substrate()


class TestEpochHooks:
    def test_begin_commit_bracket_the_batch(self, engine):
        events = []
        engine.index_manager.add_epoch_hooks(
            begin=lambda epoch: events.append(("begin", epoch)),
            commit=lambda epoch: events.append(("commit", epoch)),
        )
        pub = URI("http://example.org/pubHook")
        label = URI("http://www.w3.org/2000/01/rdf-schema#label")
        engine.add_triples([Triple(pub, label, Literal("hooked"))])
        assert events == [("begin", 0), ("commit", 1)]
        # A no-op batch still brackets but does not advance the epoch.
        engine.add_triples([])
        assert events == [("begin", 0), ("commit", 1), ("begin", 1), ("commit", 1)]

    def test_commit_runs_on_failure(self, example_graph):
        from repro.rdf.graph import DataGraph, GraphIntegrityError

        # A strict graph rejects Definition 1 violations mid-batch; the
        # commit hook must still run (a lock-holding hook pair would
        # otherwise deadlock every later update).
        engine = KeywordSearchEngine(DataGraph(example_graph.triples, strict=True))
        events = []
        engine.index_manager.add_epoch_hooks(
            begin=lambda epoch: events.append("begin"),
            commit=lambda epoch: events.append("commit"),
        )
        type_pred = engine.graph.preferred_type_predicate
        with pytest.raises(GraphIntegrityError):
            engine.add_triples(
                [Triple(URI("http://example.org/e"), type_pred, Literal("v"))]
            )
        assert events == ["begin", "commit"]
        assert engine.index_manager.epoch == 0

    def test_aborted_batch_not_counted_as_update(self, example_graph):
        from repro.rdf.graph import DataGraph, GraphIntegrityError

        engine = KeywordSearchEngine(DataGraph(example_graph.triples, strict=True))
        svc = EngineService(engine)
        try:
            type_pred = engine.graph.preferred_type_predicate
            with pytest.raises(GraphIntegrityError):
                svc.update(
                    adds=[Triple(URI("http://example.org/e"), type_pred, Literal("v"))]
                )
            assert svc.stats()["queries"]["updates"] == 0
            # The write lock was released: a later search completes.
            assert svc.search("cimiano").keywords == ["cimiano"]
        finally:
            svc.close()

