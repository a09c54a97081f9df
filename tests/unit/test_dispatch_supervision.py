"""Supervision tests for the multiprocess dispatch tier.

The claims under test: a worker that dies mid-request is retired, its
request is retried on a healthy worker under the same id, a replacement
is respawned, and `stats()` counts the restart; a worker still silent
past a request's deadline plus the grace is killed as wedged and the
request is a 504; queue wait is bounded separately from execution, and
a batch's deadline is measured from its start; an update does not queue
behind a batch; per-worker facts are merged into the dispatcher's stats.
"""

import itertools
import json
import os
import signal
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.core.engine import KeywordSearchEngine
from repro.service import (
    AdmissionError,
    DispatchService,
    EngineService,
    ReproServer,
    Request,
)
from repro.util import now


@pytest.fixture(scope="module")
def bundle(tmp_path_factory):
    from repro.datasets.example import running_example_graph

    path = str(tmp_path_factory.mktemp("dispatch") / "ex.reprobundle")
    KeywordSearchEngine(running_example_graph()).save(path)
    return path


@pytest.fixture()
def service(bundle):
    svc = DispatchService(bundle, workers=2)
    yield svc
    svc.close()


def _wait_for(predicate, timeout=15.0, interval=0.05):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        value = predicate()
        if value:
            return value
        time.sleep(interval)
    return predicate()


def _live_workers(stats):
    return [w for w in stats["workers"] if w.get("alive")]


def _recovered_stats(service, restarts=1, live=2):
    """The service's stats once a restart registered and the pool healed,
    else None (poll predicate for `_wait_for`)."""
    stats = service.stats()
    if stats["dispatch"]["restarts"] >= restarts and len(
        _live_workers(stats)
    ) == live:
        return stats
    return None


class TestCrashRecovery:
    def test_kill_idle_worker_respawned_and_counted(self, service):
        pids = {w["pid"] for w in _live_workers(service.stats())}
        assert len(pids) == 2
        victim = next(iter(pids))
        os.kill(victim, signal.SIGKILL)

        stats = _wait_for(lambda: _recovered_stats(service))
        assert stats, "dead worker never replaced"
        live_pids = {w["pid"] for w in _live_workers(stats)}
        assert victim not in live_pids
        assert len(live_pids) == 2
        # The pool serves straight through the recovery.
        assert json.loads(service.search("cimiano 2006"))["candidates"]

    def test_kill_mid_request_retried_on_healthy_worker(self, service):
        outcome = {}

        def call():
            # `sleep` occupies a worker's pipe exactly like a long search
            # (and is idempotent, like every dispatched op).
            outcome["response"] = service._roundtrip(
                {"op": "sleep", "seconds": 1.0}
            )

        thread = threading.Thread(target=call, daemon=True)
        thread.start()

        def find_busy():
            with service._cond:
                return next(
                    (h for h in service._handles if h.busy), None
                )

        busy = _wait_for(find_busy, timeout=5.0)
        assert busy is not None, "sleep request never reached a worker"
        os.kill(busy.pid, signal.SIGKILL)

        thread.join(timeout=20)
        assert not thread.is_alive(), "retry never completed"
        response = outcome["response"]
        assert response["ok"]
        # The answer came from a *different* (healthy) worker.
        assert response["pid"] != busy.pid

        stats = _wait_for(lambda: _recovered_stats(service))
        assert stats, "killed worker never respawned"
        assert stats["queries"]["retries"] >= 1

    def test_every_exchange_dying_exhausts_the_retry_budget(
        self, service, monkeypatch
    ):
        """A request that every worker dies on fails after ``workers + 1``
        attempts instead of looping: one DispatchError, ``workers``
        retries and one error counted, and the pool heals."""
        from repro.service import dispatch

        before = service.stats()["queries"]
        attempts = []

        def dies(handle, payload, timeout):
            attempts.append(handle.pid)
            raise dispatch.WorkerDied("worker closed its pipe")

        monkeypatch.setattr(dispatch._WorkerHandle, "request", dies)
        started = time.monotonic()
        with pytest.raises(dispatch.DispatchError, match="failed on 3 workers"):
            service.search("cimiano 2006")
        assert time.monotonic() - started < 30
        monkeypatch.undo()
        assert len(attempts) == len(set(attempts)) == service.workers + 1

        stats = _wait_for(lambda: _recovered_stats(service, restarts=3))
        assert stats, "retired workers never replaced"
        queries = stats["queries"]
        assert queries["retries"] - before["retries"] == service.workers
        assert queries["errors"] - before["errors"] == 1
        assert json.loads(service.search("cimiano 2006"))["candidates"]

    def test_respawned_worker_joins_at_the_watermark(self, bundle):
        from repro.rdf.namespace import LABEL_PREDICATES
        from repro.rdf.terms import Literal, URI
        from repro.rdf.triples import Triple

        label = next(iter(LABEL_PREDICATES))
        svc = DispatchService(bundle, workers=2)
        try:
            out = svc.update(
                adds=[
                    Triple(
                        URI("http://example.org/sup/a"),
                        label,
                        Literal("zzrespawn cimiano"),
                    )
                ]
            )
            assert out["workers_synced"] == 2
            victim = _live_workers(svc.stats())[0]["pid"]
            os.kill(victim, signal.SIGKILL)
            stats = _wait_for(lambda: _recovered_stats(svc))
            assert stats
            # The replacement replayed the WAL during load: it reports
            # the committed epoch without ever serving a request.
            assert all(
                w["epoch"] == out["epoch"] for w in _live_workers(stats)
            )
            assert json.loads(svc.search("zzrespawn"))["candidates"]
        finally:
            svc.close()


def _next_worker(service):
    """The handle `_borrow` takes next: the last idle one."""
    with service._cond:
        return service._idle[-1]


def _http_search(server, query):
    """``(status, X-Request-Id)`` of one GET /search."""
    url = f"{server.url}/search?q={query.replace(' ', '+')}"
    try:
        with urllib.request.urlopen(url, timeout=60) as resp:
            return resp.status, resp.headers["X-Request-Id"]
    except urllib.error.HTTPError as exc:
        return exc.code, exc.headers["X-Request-Id"]


class TestWedgedWorker:
    def test_a_stopped_worker_is_a_bounded_504_and_the_pool_heals(
        self, bundle, monkeypatch
    ):
        from repro.service import dispatch

        monkeypatch.setattr(dispatch, "WEDGE_GRACE", 0.5)
        svc = DispatchService(bundle, workers=2)
        try:
            with ReproServer(svc, port=0, timeout=0.3).start() as server:
                victim = _next_worker(svc)
                os.kill(victim.pid, signal.SIGSTOP)
                started = time.monotonic()
                status, _ = _http_search(server, "cimiano 2006")
                elapsed = time.monotonic() - started
                assert status == 504
                assert elapsed < 0.3 + 0.5 + 1.0
                assert victim.proc.wait(timeout=5) == -signal.SIGKILL

                stats = _wait_for(lambda: _recovered_stats(svc))
                assert stats, "wedged worker never replaced"
                assert stats["dispatch"]["wedged"] == 1
                assert stats["dispatch"]["restarts"] == 1
                assert stats["service"]["live_workers"] == 2
                assert stats["queries"]["timeouts"] == 1
                assert victim.pid not in {w["pid"] for w in _live_workers(stats)}
                assert _http_search(server, "cimiano 2006")[0] == 200
        finally:
            svc.close()

    def test_a_killed_worker_is_retried_under_the_same_id(self, bundle, capsys):
        svc = DispatchService(bundle, workers=2)
        try:
            with ReproServer(svc, port=0).start() as server:
                # Stopped first, so the request is surely on it when it dies.
                victim = _next_worker(svc)
                os.kill(victim.pid, signal.SIGSTOP)
                answer = {}
                thread = threading.Thread(
                    target=lambda: answer.update(
                        reply=_http_search(server, "cimiano 2006")
                    ),
                    daemon=True,
                )
                thread.start()
                assert _wait_for(lambda: victim.busy, timeout=5.0)
                os.kill(victim.pid, signal.SIGKILL)
                thread.join(timeout=30)
                assert not thread.is_alive(), "retry never completed"
            status, request_id = answer["reply"]
            assert status == 200
            retire_lines = [
                line for line in capsys.readouterr().err.splitlines()
                if "retired during request" in line
            ]
            assert len(retire_lines) == 1
            assert f"worker {victim.pid} " in retire_lines[0]
            assert f"request {request_id}:" in retire_lines[0]
            assert svc.stats()["queries"]["retries"] == 1
        finally:
            svc.close()

    def test_an_answer_to_another_request_is_a_stream_out_of_step(self):
        import io
        import types

        from repro.service.dispatch import WorkerDied, _FdReader, _WorkerHandle
        from repro.service.protocol import write_frame

        frame = io.BytesIO()
        write_frame(frame, {"ok": True, "epoch": 0, "id": "other-1"})
        read_fd, write_fd = os.pipe()
        try:
            os.write(write_fd, frame.getvalue())
            handle = _WorkerHandle.__new__(_WorkerHandle)
            handle.proc = types.SimpleNamespace(stdin=io.BytesIO())
            handle.reader = _FdReader(read_fd)
            with pytest.raises(WorkerDied, match="out of step"):
                handle.request({"op": "search", "id": "mine-1"}, 5.0)
        finally:
            os.close(read_fd)
            os.close(write_fd)

    def test_a_worker_refuses_a_request_past_its_deadline(self, bundle):
        from repro.service.worker import WorkerRuntime

        runtime = WorkerRuntime(bundle)
        for op in ("search", "execute"):
            late = runtime.handle(
                {"op": op, "q": "cimiano 2006", "id": "late-1", "left": -0.1}
            )
            assert (late["ok"], late["kind"]) == (False, "deadline")
            assert "late-1" in late["error"]
            assert runtime.handle(
                {"op": op, "q": "cimiano 2006", "id": "on-time-1", "left": 30.0}
            )["ok"]
        assert runtime.errors == 0


class TestConcurrentStart:
    """The constructor starts its N workers side by side; what the old
    one-after-another loop guaranteed by construction must still hold."""

    def test_three_workers_start_and_serve(self, bundle):
        svc = DispatchService(bundle, workers=3)
        try:
            stats = svc.stats()
            assert len({w["pid"] for w in _live_workers(stats)}) == 3
            assert len(svc._idle) == 3
            assert json.loads(svc.search("cimiano 2006"))["candidates"]
        finally:
            svc.close()

    def test_one_refusal_raises_its_error_and_leaves_no_child(
        self, bundle, monkeypatch
    ):
        from repro.service import dispatch

        children = []
        spawned = itertools.count()  # next() is atomic: the spawns race
        real_popen = dispatch.subprocess.Popen

        def recording(cmd, *args, **kwargs):
            # The second worker is pointed at a bundle that is not there:
            # it loads nothing and sends a refusal as its ready frame.
            if next(spawned) == 1:
                cmd = [arg + ".missing" if arg == bundle else arg for arg in cmd]
            proc = real_popen(cmd, *args, **kwargs)
            children.append(proc)
            return proc

        monkeypatch.setattr(dispatch.subprocess, "Popen", recording)
        threads_before = threading.active_count()
        with pytest.raises(dispatch.DispatchError, match="refused to start"):
            DispatchService(bundle, workers=3)
        # All three were started (side by side: the refusal did not stop
        # the third from being spawned) and all three are gone.
        assert len(children) == 3
        assert all(proc.poll() is not None for proc in children)
        # The writer's delta-log lock was released with them.
        monkeypatch.undo()
        assert _wait_for(lambda: threading.active_count() <= threads_before)
        svc = DispatchService(bundle, workers=1)
        svc.close()


class TestFrameDamage:
    def test_short_body_retires_the_worker_like_a_death(self):
        """A worker that dies after announcing a body must not have the
        part it managed to write forwarded as a response."""
        import io
        import types

        from repro.service.dispatch import WorkerDied, _FdReader, _WorkerHandle
        from repro.service.protocol import write_frame

        frame = io.BytesIO()
        write_frame(frame, {"ok": True, "epoch": 0}, b"x" * 4096)
        read_fd, write_fd = os.pipe()
        try:
            os.write(write_fd, frame.getvalue()[:-100])
            os.close(write_fd)  # the worker's end: gone mid-body
            handle = _WorkerHandle.__new__(_WorkerHandle)
            handle.proc = types.SimpleNamespace(stdin=io.BytesIO())
            handle.reader = _FdReader(read_fd)
            with pytest.raises(WorkerDied, match="corrupt"):
                handle.request({"op": "search", "q": "cimiano"}, timeout=5.0)
        finally:
            os.close(read_fd)


class TestQueueWait:
    def test_bounded_wait_rejects_instead_of_stacking(self, bundle):
        svc = DispatchService(bundle, workers=1, max_queue_wait=0.05)
        try:
            hold = threading.Thread(
                target=lambda: svc._roundtrip({"op": "sleep", "seconds": 1.0}),
                daemon=True,
            )
            hold.start()
            _wait_for(
                lambda: any(h.busy for h in svc._handles), timeout=5.0
            )
            with pytest.raises(AdmissionError):
                svc.search("cimiano 2006")
            hold.join(timeout=10)
            queries = svc.stats()["queries"]
            assert queries["rejected"] >= 1
            # The held request still completed; the shed one never ran.
            assert queries["completed"] >= 1
        finally:
            svc.close()


    def test_a_batch_deadline_counts_from_the_batch_start(self, bundle):
        """With its one worker held past the deadline, every member of a
        batch is a ``timeout`` at the deadline — the members queued in the
        fan-out pool do not each wait their own bound."""
        svc = DispatchService(bundle, workers=1)
        try:
            hold = threading.Thread(
                target=lambda: svc._roundtrip({"op": "sleep", "seconds": 1.0}),
                daemon=True,
            )
            hold.start()
            _wait_for(lambda: any(h.busy for h in svc._handles), timeout=5.0)
            started = time.monotonic()
            outcomes = svc.search_many(
                ["cimiano 2006"] * 10, request=Request.new(timeout=0.2)
            )
            assert time.monotonic() - started < 0.2 + 0.3
            assert [o.status for o in outcomes] == ["timeout"] * 10
            hold.join(timeout=10)
            assert svc.stats()["queries"]["timeouts"] == 10
        finally:
            svc.close()


class TestUpdateDuringBatch:
    def test_an_update_does_not_wait_for_a_running_batch(self, bundle):
        """Each ``sync`` waits only for the member its worker is running:
        it does not queue behind the batch's members, and a worker it
        waits for is not handed to the next member instead."""
        from repro.rdf.namespace import LABEL_PREDICATES
        from repro.rdf.terms import Literal, URI
        from repro.rdf.triples import Triple

        svc = DispatchService(
            bundle, workers=2, max_pending=2000,
            overrides={"search_cache_size": 0},
        )
        try:
            done = threading.Event()
            batch = threading.Thread(
                target=lambda: (
                    svc.search_many(["cimiano 2006", "aifb"] * 750), done.set()
                ),
                daemon=True,
            )
            batch.start()
            _wait_for(lambda: svc._ledger.inflight, timeout=5.0)
            time.sleep(0.02)
            waits = []
            for i in range(3):
                started = time.monotonic()
                out = svc.update(adds=[Triple(
                    URI(f"http://example.org/sup/mid-batch-{i}"),
                    next(iter(LABEL_PREDICATES)),
                    Literal(f"zzmidbatch{i}"),
                )])
                waits.append(time.monotonic() - started)
                assert out["workers_synced"] == 2
            assert not done.is_set(), "an update waited for the whole batch"
            assert max(waits) < 0.25, waits
            batch.join(timeout=60)
            assert done.is_set()
            assert json.loads(svc.search("zzmidbatch2"))["candidates"]
        finally:
            svc.close()


class TestStatsMerging:
    def test_per_worker_facts_and_dispatch_counters(self, service):
        service.search("cimiano 2006")
        stats = service.stats()
        assert stats["service"]["mode"] == "dispatch"
        assert stats["service"]["live_workers"] == 2
        # The module bundle may carry WAL epochs from earlier tests; what
        # matters is that every worker serves at the writer's epoch.
        watermark = stats["dispatch"]["watermark"]
        assert watermark == service.engine.index_manager.epoch
        workers = _live_workers(stats)
        assert len(workers) == 2
        for worker in workers:
            assert worker["pid"] > 0
            assert worker["epoch"] == watermark
            assert worker["vmrss_kb"] > 0  # /proc-backed RSS per worker
            assert "caches" in worker
        queries = stats["queries"]
        for key in ("queue_wait_p50_ms", "queue_wait_p99_ms", "queue_wait_max_ms"):
            assert queries[key] >= 0
        assert stats["dispatch"]["restarts"] == 0
        assert list(stats["dispatch"]) == [
            "watermark", "restarts", "spawn_failures", "wedged"
        ]
        assert queries["retries"] == 0
        assert sum(w["completed"] for w in workers) >= 1
        # A worker reports the load its engine records, not a second timer.
        assert all(w["load_seconds"] > 0 for w in workers)


class TestLatencyFromArrival:
    def test_both_tiers_count_a_request_from_its_arrival(self, bundle):
        """A request that arrived 0.2 s before it reached the service —
        a slow upload, say — reports at least that as its latency, on
        either tier, whether it searches or executes."""
        inprocess = EngineService(KeywordSearchEngine.load(bundle, attach_wal=False))
        dispatch = DispatchService(bundle, workers=1)
        try:
            for tier in (inprocess, dispatch):
                tier.search("cimiano 2006", request=Request.new(arrived=now() - 0.2))
                tier.execute_ranked(
                    "cimiano 2006", request=Request.new(arrived=now() - 0.2)
                )
                queries = tier.stats()["queries"]
                assert queries["completed"] == 2
                assert queries["p50_ms"] >= 200, queries
        finally:
            inprocess.close()
            dispatch.close()
