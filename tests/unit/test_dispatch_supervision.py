"""Supervision tests for the multiprocess dispatch tier.

The claims under test: a worker that dies mid-request is retired, its
request is retried on a healthy worker, a replacement is respawned, and
`stats()` counts the restart; queue wait is bounded separately from
execution; per-worker facts are merged into the dispatcher's stats.
"""

import itertools
import json
import os
import signal
import threading
import time

import pytest

from repro.core.engine import KeywordSearchEngine
from repro.service import AdmissionError, DispatchService


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
        assert sum(w["completed"] for w in workers) >= 1
