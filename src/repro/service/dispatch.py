"""Shard-parallel serving: the multiprocess dispatch tier.

:class:`DispatchService` is the process-pool sibling of
:class:`~repro.service.EngineService`.  Exploration is CPU-bound pure
Python, so N threads on one engine share a single GIL and cold
throughput flat-lines (the ``fig_serving`` wall) — which is why the
in-process tier runs a request, a batch included, on the one thread that
received it and has no pool of its own.  The dispatch tier breaks that
wall with processes instead:

* the **dispatcher** (this class, living in the HTTP process) owns the
  single WAL-attached *writer* engine — every ``/update`` epoch applies
  here, is logged write-ahead, and advances the committed **watermark**;
* N **worker processes** (:mod:`repro.service.worker`) each hold their
  own read-only lazy load of the *same* ``.reprobundle``, and each gets
  its own GIL.  What the workers share is the file: the sections a
  worker reads in place (the sorted runs, postings and term table) are
  ``mmap`` views that the OS page cache backs with
  one physical copy.  What they do not share is everything else — the
  interpreter, the imported modules and whatever a worker decodes (the
  summary graph and the substrate derived from it, the terms and
  postings its requests touched): 18 MB Pss
  per worker on DBLP-8000, measured alone (7 MB interpreter, 9 MB
  imports, 2 MB engine; table in ``docs/architecture.md``).  A worker
  therefore imports only what it runs: no HTTP stack, and numpy not
  before a view is wide enough for the kernel;
* ``/search`` and ``/execute`` are fanned out over the pool through a
  length-prefixed JSON frame protocol (:mod:`repro.service.protocol`)
  on each worker's stdin/stdout pipe, one in-flight request per worker.
  The worker encodes the HTTP response body and the frame carries it
  opaque behind its JSON envelope: the dispatcher checks the envelope and
  hands the body to the socket as it came off the pipe.

**Consistency.**  Every request carries the watermark; a worker behind
it replays the committed WAL tail (or reloads the bundle when the tail
was compacted away) *before* executing, and replay applies whole epochs
through the same atomic ``apply_batch`` path that produced them.  A
response is therefore always computed wholly at a single epoch ``>=``
the watermark at dispatch — pre- or post- any racing update, never a
hybrid.  ``update()`` additionally broadcasts a ``sync`` to every worker
and waits for the acks, so when ``/update`` returns, *all* workers serve
the new epoch.  One deliberate relaxation versus the in-process tier:
``search_many`` pins one watermark for the batch but queries may land on
workers at *different* committed epochs if updates race the batch — each
outcome is individually snapshot-consistent, the batch as a whole is not
one snapshot.

**Deadlines.**  Every ``search`` / ``execute`` serves one
:class:`~repro.service.protocol.Request`: its frame carries the id and
the seconds left, the worker refuses it once the deadline has passed
and echoes the id.  Waiting for an idle worker ends at ``max_queue_wait``
(HTTP 429) or at the deadline (:class:`DeadlineExceeded`, HTTP 504),
whichever comes first; a batch is admitted whole and each member's turn
is measured from the batch's start.

**Supervision.**  A worker that dies (crash, OOM kill) is retired, its
in-flight request is retried on a healthy worker (all dispatched ops are
read-only, so retry is safe; the retry keeps the request's id and
deadline), and a replacement is spawned in the background — the
replacement's load replays the WAL, so it joins at the current
watermark.  A worker that is alive but still silent
:data:`WEDGE_GRACE` seconds past the request's deadline is **wedged**:
it is killed and replaced the same way, counted, and the request is a
504 without a retry (with no deadline there is no wedge to detect; a
``sync`` or ``stats`` exchange gives up after :data:`SYNC_TIMEOUT`).  An
answer whose echoed id is not the request's means the stream is out of
step, and is handled like a death.  Each retirement mid-request is one
stderr line naming the request's id.  ``stats()`` merges dispatcher
counters (including the queue-wait histogram) with per-worker
epoch/RSS/PSS/cache numbers and counts every restart.
"""

from __future__ import annotations

import json
import os
import select
import subprocess
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Dict, List, Optional, Sequence

from repro.service.protocol import (
    DeadlineExceeded,
    ProtocolError,
    Request,
    read_frame,
    write_frame,
)
from repro.service.service import AdmissionError, BatchOutcome, QueryLedger
from repro.util import Counters, now

__all__ = ["DispatchError", "DispatchService", "WorkerDied"]

#: How long `_borrow` waits for an idle worker when no explicit queue
#: bound is configured — long enough to ride out a respawn, short enough
#: that a fully wedged pool surfaces as backpressure, not a hang.
_DEFAULT_QUEUE_WAIT = 60.0

#: How long a worker has to load its bundle and send its ready frame.
SPAWN_TIMEOUT = 120.0

#: How long a ``sync`` or ``stats`` exchange waits for a worker (to be
#: idle, then to answer) before it is retired.
SYNC_TIMEOUT = 30.0

#: How long past a request's deadline a worker may stay silent before it
#: is killed as wedged.  A search that started in time is never
#: preempted, so it has this long to finish and its answer is still sent.
WEDGE_GRACE = 10.0


def _log(message: str) -> None:
    print(f"# dispatch: {message}", file=sys.stderr)


class DispatchError(RuntimeError):
    """A dispatch-tier failure that is not the client's fault (HTTP 500)."""


class WorkerDied(RuntimeError):
    """The worker's pipe broke or its response never arrived."""


class WorkerWedged(WorkerDied):
    """The worker is alive but its response did not arrive in time."""


class _FdReader:
    """Deadline-aware exact reads over a pipe file descriptor.

    ``read`` blocks in ``select`` until bytes arrive or ``deadline`` (a
    :func:`repro.util.now` reading, set per request) passes — the latter
    raises :class:`WorkerWedged`, a :class:`WorkerDied`: a worker that
    stops answering is retired like a dead one.
    """

    def __init__(self, fd: int):
        self._fd = fd
        self.deadline: Optional[float] = None

    def read(self, count: int) -> bytes:
        while True:
            timeout = None
            if self.deadline is not None:
                timeout = self.deadline - now()
                if timeout <= 0:
                    raise WorkerWedged("worker response deadline exceeded")
            ready, _, _ = select.select([self._fd], [], [], timeout)
            if not ready:
                raise WorkerWedged("worker response deadline exceeded")
            try:
                chunk = os.read(self._fd, count)
            except OSError as exc:
                raise WorkerDied(f"worker pipe read failed: {exc}") from exc
            return chunk  # b"" = EOF; read_frame turns it into None/error


class _WorkerHandle:
    """One worker subprocess plus its strictly serialized request pipe."""

    def __init__(self, bundle: str, overrides: Dict[str, object]):
        package_root = os.path.dirname(
            os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = (
            package_root + os.pathsep + env["PYTHONPATH"]
            if env.get("PYTHONPATH")
            else package_root
        )
        cmd = [sys.executable, "-m", "repro.service.worker", bundle]
        if overrides:
            cmd += ["--overrides", json.dumps(overrides)]
        self.proc = subprocess.Popen(
            cmd, stdin=subprocess.PIPE, stdout=subprocess.PIPE, env=env
        )
        self.reader = _FdReader(self.proc.stdout.fileno())
        self.reader.deadline = now() + SPAWN_TIMEOUT
        try:
            ready = read_frame(self.reader)
        except (ProtocolError, WorkerDied) as exc:
            self.kill()
            raise DispatchError(f"worker failed to start: {exc}") from exc
        if ready is None or ready.get("op") != "ready":
            self.kill()
            raise DispatchError(f"worker sent no ready frame (got {ready!r})")
        if not ready.get("ok"):
            self.kill()
            raise DispatchError(f"worker refused to start: {ready.get('error')}")
        self.pid: int = ready["pid"]
        self.epoch: int = ready.get("epoch", 0)
        self.busy = False
        #: Exchanges waiting for this very worker (a sync, a stats poll):
        #: while there are any, `_borrow` leaves it for them.
        self.claims = 0

    @property
    def alive(self) -> bool:
        return self.proc.poll() is None

    def request(
        self, payload: Dict[str, object], timeout: Optional[float]
    ) -> Dict[str, object]:
        """One request/response exchange.  Raises :class:`WorkerDied` on a
        broken pipe, EOF, corrupt frame, an answer to another request id,
        or deadline (:class:`WorkerWedged`) — the caller retires this
        handle."""
        try:
            write_frame(self.proc.stdin, payload)
        except (BrokenPipeError, OSError) as exc:
            raise WorkerDied(f"worker pipe write failed: {exc}") from exc
        self.reader.deadline = (
            None if timeout is None else now() + timeout
        )
        try:
            response = read_frame(self.reader)
        except ProtocolError as exc:
            raise WorkerDied(f"worker stream corrupt: {exc}") from exc
        if response is None:
            raise WorkerDied("worker closed its pipe")
        if response.get("id") != payload.get("id"):
            raise WorkerDied(
                f"worker answered request {response.get('id')!r} to "
                f"{payload.get('id')!r}: stream out of step"
            )
        if "epoch" in response:
            self.epoch = response["epoch"]
        return response

    def kill(self) -> None:
        try:
            self.proc.kill()
        except OSError:
            pass
        for stream in (self.proc.stdin, self.proc.stdout):
            try:
                if stream is not None:
                    stream.close()
            except OSError:
                pass
        try:
            self.proc.wait(timeout=5)
        except subprocess.TimeoutExpired:  # pragma: no cover - kernel lag
            pass


class DispatchService:
    """Multiprocess serving over one shared bundle (see module docstring).

    Parameters
    ----------
    bundle:
        Path to the ``.reprobundle`` every worker maps.
    workers:
        Worker-process count (>= 1; ``repro serve --workers 0`` means "no
        dispatch tier, use :class:`EngineService`" and is the CLI's
        decision, not this class's).
    engine:
        An already-loaded *writer* engine for the same bundle (the CLI
        passes the one it printed provenance for).  When omitted, the
        dispatcher loads one itself with ``attach_wal=True``.  Updates
        require the attached delta log — without it followers could
        never observe them — so ``update()`` refuses on an engine whose
        ``delta_log`` is ``None``.
    overrides:
        ``KeywordSearchEngine.load`` overrides forwarded to every worker
        (and to the writer when the dispatcher loads it), so the whole
        tier serves one engine configuration.
    max_pending:
        Admission bound on in-flight requests (HTTP 429 beyond it).
    max_queue_wait:
        Bound on the time a request may wait for an idle worker,
        separately from its execution time; beyond it the request is
        rejected with :class:`AdmissionError` (backpressure) instead of
        stacking deadline debt behind a busy pool.  A request's deadline
        ends the wait if it comes first (:class:`DeadlineExceeded`).
    """

    def __init__(
        self,
        bundle,
        workers: int = 2,
        engine=None,
        overrides: Optional[Dict[str, object]] = None,
        max_pending: int = 64,
        max_queue_wait: Optional[float] = None,
    ):
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        if max_pending < 1:
            raise ValueError(f"max_pending must be >= 1, got {max_pending}")
        self.bundle = os.fspath(bundle)
        self.workers = workers
        self.max_pending = max_pending
        self.max_queue_wait = max_queue_wait
        self._overrides = {
            k: v for k, v in (overrides or {}).items() if v is not None
        }

        if engine is None:
            from repro.core.engine import KeywordSearchEngine

            engine = KeywordSearchEngine.load(
                self.bundle, attach_wal=True, **self._overrides
            )
        self.engine = engine

        self._cond = threading.Condition()
        self._handles: List[_WorkerHandle] = []
        self._idle: List[_WorkerHandle] = []
        self._spawning = 0
        self._closed = False

        self._ledger = QueryLedger(max_pending)
        # The dispatcher's own counters, beside the ledger's.
        self._counts = Counters("retries", "restarts", "spawn_failures", "wedged")
        #: The committed epoch every response must be at or past.
        self._watermark = engine.index_manager.epoch

        self._fanout = ThreadPoolExecutor(
            max_workers=max(workers, 2), thread_name_prefix="repro-dispatch"
        )
        # Side by side: a worker's start is an interpreter, its imports
        # and a bundle load, and none of that waits on another worker.
        # Every spawn is waited for before anything is decided, so a
        # failure leaves no child behind: a handle that failed killed its
        # own process, and close() kills the ones that started.
        spawns = [self._fanout.submit(self._spawn_one) for _ in range(workers)]
        first_error: Optional[Exception] = None
        for spawn in spawns:
            try:
                handle = spawn.result()
            except Exception as exc:
                if first_error is None:
                    first_error = exc
                continue
            self._handles.append(handle)
            self._idle.append(handle)
        if first_error is not None:
            self.close(drain_seconds=0)
            raise first_error

    # ------------------------------------------------------------------
    # Pool plumbing
    # ------------------------------------------------------------------

    def _spawn_one(self) -> _WorkerHandle:
        return _WorkerHandle(self.bundle, self._overrides)

    def _borrow(self, request: Request, since: float) -> _WorkerHandle:
        """Take an idle worker for ``request``, waiting until
        ``max_queue_wait`` after ``since`` (without one,
        ``_DEFAULT_QUEUE_WAIT`` after now) or the request's deadline,
        whichever comes first: :class:`AdmissionError` at the bound,
        :class:`DeadlineExceeded` at the deadline — also when it has
        passed before the wait begins.

        Records its wait as a queue wait.  Dead handles found in the idle
        list are retired (with respawn) on the way — a worker killed while
        idle is discovered here, not by a failed request — and a worker
        some exchange is waiting for (``claims``) is left to it.
        """
        started = now()
        bound = self.max_queue_wait
        if bound is None:
            bound, since = _DEFAULT_QUEUE_WAIT, started
        until = request.wait_until(since + bound)
        with self._cond:
            while True:
                if self._closed:
                    raise RuntimeError("service is closed")
                if request.expired():
                    raise DeadlineExceeded(
                        f"request {request.id} reached its deadline waiting "
                        f"for an idle worker"
                    )
                position = len(self._idle)
                while position:
                    position -= 1
                    handle = self._idle[position]
                    if handle.claims:
                        continue
                    del self._idle[position]
                    if handle.alive:
                        handle.busy = True
                        self._ledger.record_queue_wait(now() - started)
                        return handle
                    self._retire_locked(handle)
                if not self._handles and not self._spawning:
                    raise DispatchError(
                        "no live workers and no respawn in progress"
                    )
                remaining = until - now()
                if remaining <= 0 and not request.expired():
                    raise AdmissionError(
                        f"no idle worker within max_queue_wait={bound:.3f}s "
                        f"({len(self._handles)} live, all busy)"
                    )
                self._cond.wait(remaining)  # at the deadline: refused above

    def _checkin(self, handle: _WorkerHandle) -> None:
        with self._cond:
            handle.busy = False
            if handle in self._handles and handle.alive and not self._closed:
                self._idle.append(handle)
                self._cond.notify_all()

    def _retire_locked(self, handle: _WorkerHandle) -> None:
        """Drop a dead/hung worker and start its replacement (cond held)."""
        if handle in self._handles:
            self._handles.remove(handle)
        if handle in self._idle:
            self._idle.remove(handle)
        self._cond.notify_all()
        handle.kill()
        if not self._closed:
            self._spawning += 1
            threading.Thread(
                target=self._respawn, name="repro-dispatch-respawn", daemon=True
            ).start()

    def _retire(self, handle: _WorkerHandle) -> None:
        with self._cond:
            self._retire_locked(handle)

    def _respawn(self) -> None:
        try:
            for attempt in range(3):
                if self._closed:
                    return
                try:
                    handle = self._spawn_one()
                except Exception as exc:
                    _log(f"worker respawn attempt {attempt + 1} failed: {exc}")
                    time.sleep(0.3)
                    continue
                with self._cond:
                    if self._closed:
                        handle.kill()
                        return
                    self._handles.append(handle)
                    self._idle.append(handle)
                    self._cond.notify_all()
                self._counts.add("restarts")
                return
            self._counts.add("spawn_failures")
        finally:
            with self._cond:
                self._spawning -= 1
                self._cond.notify_all()

    def _checkout_specific(
        self, handle: _WorkerHandle, timeout: float
    ) -> bool:
        """Wait until *this* worker is idle and claim it.  False when it
        died/was retired meanwhile or the wait timed out."""
        deadline = now() + timeout
        with self._cond:
            handle.claims += 1
            try:
                while True:
                    if self._closed or handle not in self._handles:
                        return False
                    if handle in self._idle:
                        self._idle.remove(handle)
                        handle.busy = True
                        return True
                    remaining = deadline - now()
                    if remaining <= 0:
                        return False
                    self._cond.wait(remaining)
            finally:
                handle.claims -= 1

    # ------------------------------------------------------------------
    # The request path
    # ------------------------------------------------------------------

    def _roundtrip(
        self, payload: Dict[str, object], request: Optional[Request] = None
    ) -> Dict[str, object]:
        """Admit one request and :meth:`_exchange` it; the outcome goes to
        the ledger.  Without ``request``, one with no deadline."""
        if self._closed:
            raise RuntimeError("service is closed")
        request = Request.new() if request is None else request
        self._ledger.admit(1)
        try:
            response = self._exchange(payload, request, now())
        except AdmissionError:
            self._ledger.count("rejected")
            raise
        except DeadlineExceeded:
            self._ledger.record(request, "timeout")
            raise
        except Exception:
            self._ledger.record(request, "error")
            raise
        finally:
            self._ledger.release(1)
        self._ledger.record(request, "ok")
        return response

    def _exchange(
        self, payload: Dict[str, object], request: Request, since: float
    ) -> Dict[str, object]:
        """Borrow (:meth:`_borrow`), exchange, retry on a death; returns
        the ok frame.  A worker wedged past the deadline is killed and
        the request is a :class:`DeadlineExceeded`, not retried."""
        attempts = 0
        while True:
            handle = self._borrow(request, since)
            patience = (
                None
                if request.deadline is None
                else request.deadline + WEDGE_GRACE - now()
            )
            try:
                response = handle.request(
                    dict(payload, **request.to_frame()), patience
                )
            except WorkerWedged:
                self._retire(handle)
                self._counts.add("wedged")
                _log(f"worker {handle.pid} wedged on request {request.id}: "
                     f"silent {WEDGE_GRACE:g}s past its deadline, killed")
                raise DeadlineExceeded(
                    f"request {request.id} reached its deadline on a wedged worker"
                )
            except WorkerDied as exc:
                self._retire(handle)
                _log(f"worker {handle.pid} retired during request "
                     f"{request.id}: {exc}")
                attempts += 1
                if attempts > self.workers:  # the budget: workers + 1
                    raise DispatchError(
                        f"request failed on {attempts} workers in a row"
                    )
                self._counts.add("retries")
                continue
            self._checkin(handle)
            if response.get("ok"):
                return response
            kind = response.get("kind")
            message = str(response.get("error"))
            if kind == "bad_request":
                raise ValueError(message)
            if kind == "deadline":
                raise DeadlineExceeded(message)
            raise DispatchError(message)

    def search(self, query, k=None, dmax=None, request: Optional[Request] = None):
        """One search on some worker, at or past the current watermark.

        Returns the *encoded* result — the HTTP response body, as
        ``bytes`` (the worker serializes at the source);
        :func:`repro.service.http.encode_result` passes it through
        unchanged, so the HTTP layer is tier-agnostic, and
        ``json.loads`` gives the dict ``result_to_json`` would.
        """
        response = self._roundtrip(
            {
                "op": "search",
                "q": query,
                "k": k,
                "dmax": dmax,
                "min_epoch": self._watermark,
            },
            request,
        )
        return response["body"]

    def search_many(
        self,
        queries: Sequence,
        k=None,
        dmax=None,
        request: Optional[Request] = None,
    ) -> List[BatchOutcome]:
        """Fan a batch over the pool, one watermark pinned for the batch.

        The batch is admitted (or rejected) whole, as in process.  Unlike
        the in-process tier it is *not* one snapshot: each outcome is
        individually consistent at some epoch >= the pinned watermark.  A
        member whose turn comes past ``request``'s deadline, or past the
        queue bound after the batch started, is a ``timeout``."""
        queries = list(queries)
        if not queries:
            return []
        if self._closed:
            raise RuntimeError("service is closed")
        request = Request.new() if request is None else request
        self._ledger.admit(len(queries))
        started = now()
        watermark = self._watermark

        def one(index: int, query) -> BatchOutcome:
            begun = now()
            bound = self.max_queue_wait
            if bound is not None and begun - started > bound:
                return BatchOutcome(index, query, "timeout")  # as in process
            try:
                response = self._exchange(
                    {
                        "op": "search",
                        "q": query,
                        "k": k,
                        "dmax": dmax,
                        "min_epoch": watermark,
                    },
                    request,
                    started,
                )
            except (AdmissionError, DeadlineExceeded):
                return BatchOutcome(index, query, "timeout")
            except Exception as exc:
                return BatchOutcome(
                    index, query, "error", error=exc,
                    latency_seconds=now() - begun,
                )
            return BatchOutcome(
                index, query, "ok", result=response["body"],
                latency_seconds=now() - begun,
            )

        try:
            futures = [
                self._fanout.submit(one, i, q) for i, q in enumerate(queries)
            ]
            outcomes = [f.result() for f in futures]
        finally:
            self._ledger.release(len(queries))
        for outcome in outcomes:
            self._ledger.record(request, outcome.status)
        return outcomes

    def execute_ranked(
        self,
        query,
        rank: int = 1,
        limit: Optional[int] = 10,
        request: Optional[Request] = None,
    ):
        """Search + evaluate the rank-th candidate on one worker.

        Returns ``(body, None, None)`` — the whole ``/execute`` response
        body, already encoded like :meth:`search`'s, in the candidate's
        place — or ``(None, [], None)`` when the rank is out of range."""
        response = self._roundtrip(
            {
                "op": "execute",
                "q": query,
                "rank": rank,
                "limit": limit,
                "min_epoch": self._watermark,
            },
            request,
        )
        body = response.get("body")
        return (None, [], None) if body is None else (body, None, None)

    # ------------------------------------------------------------------
    # The write path
    # ------------------------------------------------------------------

    def update(self, adds: Sequence = (), removes: Sequence = ()) -> Dict[str, object]:
        """Apply one atomic epoch on the writer, then sync every worker.

        The batch commits on the dispatcher's WAL-attached engine (the
        write-ahead entry is what followers replay), the watermark
        advances, and a ``sync`` is broadcast to all workers in parallel
        — each ack means that worker is at the new epoch.  A worker that
        cannot ack within :data:`SYNC_TIMEOUT` is retired and respawned (the
        respawn replays the WAL, landing at the watermark), so when this
        method returns every live worker serves the committed state.
        """
        if self.engine.delta_log is None:
            raise DispatchError(
                "this dispatcher's writer engine has no attached delta log; "
                "updates would be invisible to the worker processes — load "
                "the bundle with attach_wal=True"
            )
        changed = self.engine.index_manager.apply_batch(adds=adds, removes=removes)
        epoch = self.engine.index_manager.epoch
        self._watermark = epoch
        synced = 0
        if changed:
            self._ledger.count("updates")
            synced = self._broadcast_sync(epoch)
        return {
            "changed": changed,
            "epoch": epoch,
            "summary_version": self.engine.summary.snapshot_key,
            "index_version": self.engine.keyword_index.snapshot_key,
            "workers_synced": synced,
        }

    def _broadcast_sync(self, epoch: int) -> int:
        """Sync every worker to ``epoch``, each on a thread of its own: an
        update does not queue behind a batch's members in ``_fanout``,
        and ``claims`` keeps a busy worker from going back to them."""
        with self._cond:
            targets = list(self._handles)
        acked: List[_WorkerHandle] = []

        def sync_one(handle: _WorkerHandle) -> None:
            if not self._checkout_specific(handle, SYNC_TIMEOUT):
                return
            try:
                response = handle.request(
                    {"op": "sync", "min_epoch": epoch}, SYNC_TIMEOUT
                )
            except WorkerDied:
                self._retire(handle)
                return
            self._checkin(handle)
            if response.get("ok") and response.get("epoch", -1) >= epoch:
                acked.append(handle)

        threads = [
            threading.Thread(
                target=sync_one, args=(handle,), name="repro-dispatch-sync",
                daemon=True,
            )
            for handle in targets
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        return len(acked)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def stats(self) -> Dict[str, object]:
        """Dispatcher counters merged with per-worker facts.

        Dead workers discovered here are retired/respawned and reported
        with ``alive: false`` for this snapshot; busy workers are
        reported by pid with ``busy: true`` instead of blocking the
        stats call behind a long search."""
        at = now()
        queries = self._ledger.stats(at)
        counts = self._counts.snapshot()
        queries["retries"] = counts.pop("retries")

        workers: List[Dict[str, object]] = []
        with self._cond:
            handles = list(self._handles)
        for handle in handles:
            if not handle.alive:
                self._retire(handle)
                workers.append({"pid": handle.pid, "alive": False})
                continue
            if not self._checkout_specific(handle, 0.25):
                workers.append(
                    {"pid": handle.pid, "alive": True, "busy": True,
                     "epoch": handle.epoch}
                )
                continue
            try:
                payload = handle.request({"op": "stats"}, SYNC_TIMEOUT)
            except WorkerDied:
                self._retire(handle)
                workers.append({"pid": handle.pid, "alive": False})
                continue
            self._checkin(handle)
            payload.pop("ok", None)
            payload["alive"] = True
            workers.append(payload)

        engine = self.engine
        artifact = getattr(engine, "artifact", None)
        return {
            "artifact": dict(artifact) if artifact is not None else None,
            "index_tier": engine.index_tier,
            "service": {
                "mode": "dispatch",
                "workers": self.workers,
                "live_workers": len(handles),
                "max_pending": self.max_pending,
                "uptime_seconds": at - self._ledger.started_at,
            },
            "queries": queries,
            "dispatch": {"watermark": self._watermark, **counts},
            "workers": workers,
            "caches": engine.cache_stats(),
            "snapshot": {
                "epoch": engine.index_manager.epoch,
                "summary_version": engine.summary.snapshot_key,
                "index_version": engine.keyword_index.snapshot_key,
            },
            "data": engine.data_stats(),
        }

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def close(self, drain_seconds: float = 5.0) -> None:
        """Drain, then shut the pool down.

        Stops admitting, waits up to ``drain_seconds`` for in-flight
        requests, asks each idle worker to exit cleanly (``shutdown``
        frame), and kills whatever remains.  Releases the writer
        engine's delta-log lock so another process can take over the
        artifact."""
        with self._cond:
            if self._closed:
                return
            self._closed = True
            self._cond.notify_all()
        deadline = now() + drain_seconds
        while self._ledger.inflight and now() < deadline:
            time.sleep(0.02)
        with self._cond:
            handles = list(self._handles)
            self._handles.clear()
            self._idle.clear()
        for handle in handles:
            if handle.alive and not handle.busy:
                try:
                    handle.request({"op": "shutdown"}, 2.0)
                    handle.proc.wait(timeout=2)
                except (WorkerDied, subprocess.TimeoutExpired, OSError):
                    pass
            handle.kill()
        self._fanout.shutdown(wait=False)
        if self.engine.delta_log is not None:
            self.engine.delta_log.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()

    def __repr__(self):
        with self._cond:
            live = len(self._handles)
        return (
            f"DispatchService(bundle={self.bundle!r}, workers={self.workers}, "
            f"live={live}, watermark={self._watermark})"
        )
