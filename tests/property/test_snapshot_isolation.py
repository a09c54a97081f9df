"""Snapshot isolation under racing writes (the serving layer's core claim).

Property: a search racing one `apply_batch(adds, removes)` epoch must
return a result byte-identical to searching either the **pre-batch** or
the **post-batch** engine — never a hybrid of the two states.  The
pre/post oracles are independently *rebuilt* engines (PR 1's
maintained == rebuilt property makes that a sound reference), and results
are compared on their full rendered form: keywords, ignored keywords, and
every candidate's (rank, cost, query, SPARQL).
"""

import json
import threading

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core.engine import KeywordSearchEngine
from repro.rdf.graph import DataGraph
from repro.rdf.namespace import LABEL_PREDICATES
from repro.rdf.terms import Literal, URI
from repro.rdf.triples import Triple
from repro.service import EngineService

from repro.datasets.example import running_example_graph

BASE_TRIPLES = tuple(running_example_graph().triples)
LABEL = next(iter(LABEL_PREDICATES))
KEYWORDS = "cimiano 2006"
READERS = 3
SEARCHES_PER_READER = 6

_ADD_WORDS = ("cimiano", "2006", "article", "zzmarker")


def _render(result):
    return (
        tuple(result.keywords),
        tuple(result.ignored_keywords),
        tuple(
            (c.rank, c.cost, str(c.query), c.to_sparql()) for c in result.candidates
        ),
    )


def _reference_render(triples):
    """Search a freshly built engine over exactly these triples."""
    return _render(KeywordSearchEngine(DataGraph(triples)).search(KEYWORDS))


@st.composite
def update_batches(draw):
    removes = draw(
        st.lists(st.sampled_from(BASE_TRIPLES), max_size=4, unique=True)
    )
    adds = [
        Triple(
            URI(f"http://example.org/iso/new{i}"),
            LABEL,
            Literal(f"{draw(st.sampled_from(_ADD_WORDS))} fresh {i}"),
        )
        for i in range(draw(st.integers(min_value=0, max_value=3)))
    ]
    return adds, removes


@settings(
    max_examples=12,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(update_batches())
def test_racing_search_returns_pre_or_post_state_never_hybrid(batch):
    adds, removes = batch

    pre = _reference_render(BASE_TRIPLES)
    post_triples = [t for t in BASE_TRIPLES if t not in set(removes)] + adds
    post = _reference_render(post_triples)

    engine = KeywordSearchEngine(DataGraph(BASE_TRIPLES))
    service = EngineService(engine, max_pending=64)
    try:
        observed = []
        observed_lock = threading.Lock()
        failures = []
        start = threading.Barrier(READERS + 1)

        def reader():
            try:
                start.wait()
                for _ in range(SEARCHES_PER_READER):
                    render = _render(service.search(KEYWORDS))
                    with observed_lock:
                        observed.append(render)
            except Exception as exc:  # noqa: BLE001
                failures.append(exc)

        threads = [
            threading.Thread(target=reader, daemon=True) for _ in range(READERS)
        ]
        for t in threads:
            t.start()
        start.wait()
        service.update(adds=adds, removes=removes)
        for t in threads:
            t.join(timeout=60)
            assert not t.is_alive(), "reader wedged against the update epoch"
        assert failures == []

        legal = {pre, post}
        for render in observed:
            assert render in legal, (
                "hybrid result observed: matches neither the pre-batch nor "
                "the post-batch engine"
            )
        # After the epoch committed, only the post state may be served.
        assert _render(service.search(KEYWORDS)) == post
    finally:
        service.close()


def _render_json(body):
    """The dispatcher-path analogue of `_render`: the same byte-comparable
    tuple, built from the encoded response body a worker process returned.
    JSON float round-trips are exact (repr-based), so candidate costs
    compare without tolerance."""
    payload = json.loads(body)
    return (
        tuple(payload["keywords"]),
        tuple(payload["ignored_keywords"]),
        tuple(
            (c["rank"], c["cost"], c["query"], c["sparql"])
            for c in payload["candidates"]
        ),
    )


def _reference_render_json(triples):
    from repro.service.http import encode_result

    return _render_json(
        encode_result(KeywordSearchEngine(DataGraph(triples)).search(KEYWORDS))
    )


@settings(
    max_examples=3,  # each example spawns a 2-worker process pool
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(update_batches())
def test_dispatch_racing_search_is_pre_or_post_never_hybrid(batch):
    """The multiprocess tier preserves the same property: a search racing
    an `/update` through a `--workers 2` dispatcher returns the pre- or
    the post-batch state, never a hybrid — and after `update()` returns,
    *every* worker serves the post state (the sync broadcast acked)."""
    import os
    import shutil
    import tempfile

    from repro.service import DispatchService

    adds, removes = batch
    pre = _reference_render_json(BASE_TRIPLES)
    post_triples = [t for t in BASE_TRIPLES if t not in set(removes)] + adds
    post = _reference_render_json(post_triples)

    tmpdir = tempfile.mkdtemp(prefix="repro-iso-")
    try:
        bundle = os.path.join(tmpdir, "iso.reprobundle")
        KeywordSearchEngine(DataGraph(BASE_TRIPLES)).save(bundle)
        service = DispatchService(bundle, workers=2)
        try:
            observed = []
            observed_lock = threading.Lock()
            failures = []
            readers = 2
            start = threading.Barrier(readers + 1)

            def reader():
                try:
                    start.wait()
                    for _ in range(3):
                        render = _render_json(service.search(KEYWORDS))
                        with observed_lock:
                            observed.append(render)
                except Exception as exc:  # noqa: BLE001
                    failures.append(exc)

            threads = [
                threading.Thread(target=reader, daemon=True)
                for _ in range(readers)
            ]
            for t in threads:
                t.start()
            start.wait()
            service.update(adds=adds, removes=removes)
            for t in threads:
                t.join(timeout=120)
                assert not t.is_alive(), "reader wedged against the update"
            assert failures == []

            legal = {pre, post}
            for render in observed:
                assert render in legal, (
                    "hybrid result observed across process boundary: "
                    "matches neither the pre- nor the post-batch engine"
                )
            # update() acked the sync on every worker: regardless of
            # which one serves these, only the post state is legal now.
            for _ in range(4):
                assert _render_json(service.search(KEYWORDS)) == post
        finally:
            service.close()
    finally:
        shutil.rmtree(tmpdir, ignore_errors=True)


@settings(max_examples=8, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(update_batches())
def test_search_many_is_byte_identical_to_sequential_after_update(batch):
    """The batch executor agrees with sequential search on the same
    snapshot, including on a maintained (post-update) engine."""
    adds, removes = batch
    engine = KeywordSearchEngine(DataGraph(BASE_TRIPLES))
    service = EngineService(engine)
    try:
        service.update(adds=adds, removes=removes)
        queries = [KEYWORDS, "aifb", "article 2006"]
        snapshot = engine.snapshot()
        expected = [
            _render(engine.search_on_snapshot(snapshot, q)) for q in queries
        ]
        outcomes = service.search_many(queries)
        assert [o.status for o in outcomes] == ["ok"] * len(queries)
        assert [_render(o.result) for o in outcomes] == expected
    finally:
        service.close()


@settings(
    max_examples=8,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(update_batches())
def test_shared_frontier_batch_racing_update_is_pre_or_post_never_hybrid(batch):
    """A ``search_many`` batch racing an update epoch: the whole batch
    runs against one pinned snapshot, and its queries share the
    substrate's plan LRU, so every query in the batch
    must see *one* engine state — all-pre or all-post, never a hybrid,
    and never bounds from one epoch applied to the other."""
    adds, removes = batch

    pre = _reference_render(BASE_TRIPLES)
    post_triples = [t for t in BASE_TRIPLES if t not in set(removes)] + adds
    post = _reference_render(post_triples)

    engine = KeywordSearchEngine(DataGraph(BASE_TRIPLES), guided=True)
    service = EngineService(engine, max_pending=64)
    try:
        batches = []
        failures = []
        start = threading.Barrier(2)

        def reader():
            try:
                start.wait()
                for _ in range(4):
                    outcomes = service.search_many([KEYWORDS] * 3)
                    assert all(o.ok for o in outcomes)
                    batches.append([_render(o.result) for o in outcomes])
            except Exception as exc:  # noqa: BLE001
                failures.append(exc)

        thread = threading.Thread(target=reader, daemon=True)
        thread.start()
        start.wait()
        service.update(adds=adds, removes=removes)
        thread.join(timeout=60)
        assert not thread.is_alive(), "batch reader wedged against the update"
        assert failures == []

        legal = {pre, post}
        for renders in batches:
            assert renders[0] in legal, "hybrid result in a batch"
            # One snapshot per batch: identical queries, identical answers.
            assert all(render == renders[0] for render in renders)
        # After the epoch committed, a fresh batch serves only post state.
        outcomes = service.search_many([KEYWORDS] * 2)
        assert [_render(o.result) for o in outcomes] == [post, post]
    finally:
        service.close()
