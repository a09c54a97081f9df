"""Reader/writer coordination and batched search execution for one engine.

The paper's paradigm is interactive — many users fire keyword queries and
refine against the top-k interpretations — so the serving shape is: *reads
vastly outnumber writes, both must coexist, and every read must be
consistent*.  The offline structures are mutated in place by the
:class:`~repro.maintenance.IndexManager`, so consistency is enforced by
**epoch coordination** rather than copy-on-write:

* **Reads** pin an :class:`~repro.core.snapshot.EngineSnapshot` under a
  shared read hold.  Acquiring the hold is one short critical section
  (bump a counter); the search itself runs lock-free against the pinned
  structures, concurrently with any number of other reads.
* **Writes** are serialized and exclusive.  The service registers epoch
  begin/commit hooks on the engine's ``IndexManager``, so *every* update
  batch — including one issued directly through
  ``engine.add_triples``/``remove_triples`` by code unaware of the
  service — drains active readers, applies under exclusion, and then
  readmits readers.  Writer preference keeps a steady read stream from
  starving updates.

:meth:`EngineService.search_many` runs a batch of queries in order on the
calling thread **under one read hold and one pinned snapshot**, so its
results are byte-identical to sequential ``engine.search`` calls on that
snapshot.  There is no thread pool behind it: a search is Python
bytecode, N threads on one engine share a single GIL, and a pool
measured no faster than the plain loop (parallel search is the worker
*processes* of :mod:`repro.service.dispatch`).  Admission control bounds
the number of in-flight queries (:class:`AdmissionError` = backpressure,
HTTP 429).  Every read serves one :class:`~repro.service.protocol.Request`
— the front end mints it, a library call gets one with no deadline — and
its deadline ends a wait for the read lock (:class:`DeadlineExceeded`,
HTTP 504) and expires batch members without running them (a Python
search cannot be preempted mid-flight; the deadline is checked before
each member starts, and an answer that runs past it is still sent).
"""

from __future__ import annotations

import threading
import time
from collections import deque
from contextlib import contextmanager
from typing import Dict, List, Optional, Sequence

from repro.core import kernels
from repro.service.protocol import DeadlineExceeded, Request
from repro.util import now

__all__ = [
    "AdmissionError",
    "BatchOutcome",
    "EngineService",
]


class AdmissionError(RuntimeError):
    """The service is at its in-flight query bound; retry later."""


class _ReadWriteLock:
    """Many readers / one writer, writer-preferring.

    ``acquire_read`` blocks while a writer is active *or waiting* — so a
    continuous stream of reads cannot starve updates — and is otherwise
    one counter bump.  ``acquire_write`` waits for active readers to
    drain.  Not reentrant in either direction.
    """

    def __init__(self):
        self._cond = threading.Condition()
        self._readers = 0
        self._writer = False
        self._writers_waiting = 0

    def acquire_read(self, until: Optional[float] = None) -> bool:
        """Returns False iff ``until`` (a :func:`now` reading) passed
        before admission."""
        with self._cond:
            while self._writer or self._writers_waiting:
                if until is None:
                    self._cond.wait()
                    continue
                remaining = until - now()
                if remaining <= 0:
                    return False
                self._cond.wait(remaining)
            self._readers += 1
            return True

    def release_read(self) -> None:
        with self._cond:
            self._readers -= 1
            if self._readers == 0:
                self._cond.notify_all()

    def acquire_write(self) -> None:
        with self._cond:
            self._writers_waiting += 1
            try:
                while self._writer or self._readers:
                    self._cond.wait()
                self._writer = True
            finally:
                self._writers_waiting -= 1

    def release_write(self) -> None:
        with self._cond:
            self._writer = False
            self._cond.notify_all()


class BatchOutcome:
    """One query's fate inside a :meth:`EngineService.search_many` batch.

    ``status`` is ``"ok"`` (``result`` is the :class:`SearchResult`),
    ``"timeout"`` (its turn came past the request's deadline or the
    queue bound, so it never started), or ``"error"`` (``error``
    carries the exception).
    Outcomes are returned in input order.
    """

    __slots__ = ("index", "query", "status", "result", "error", "latency_seconds")

    def __init__(self, index, query, status, result=None, error=None, latency_seconds=0.0):
        self.index = index
        self.query = query
        self.status = status
        self.result = result
        self.error = error
        self.latency_seconds = latency_seconds

    @property
    def ok(self) -> bool:
        return self.status == "ok"

    def __repr__(self):
        return (
            f"BatchOutcome(index={self.index}, status={self.status!r}, "
            f"latency_ms={1000 * self.latency_seconds:.2f})"
        )


#: How many recent latencies and queue waits feed the ``/stats``
#: percentiles.
LATENCY_WINDOW = 2048
#: The ``queries`` count each outcome adds to (any other: ``errors``).
_OUTCOME_COUNTS = {"ok": "completed", "timeout": "timeouts"}


def _percentile(sorted_values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile over an ascending sequence (0 on empty)."""
    if not sorted_values:
        return 0.0
    rank = int(q * (len(sorted_values) - 1) + 0.5)
    return sorted_values[rank]


class QueryLedger:
    """The admission bound and the counters behind ``/stats``' ``queries``
    block — one per service, whichever tier it serves from.

    ``admit`` / ``release`` bracket every in-flight query against
    ``max_pending``; ``record`` files its outcome (``"ok"`` with its
    latency, from the request's arrival; ``"timeout"``; anything else an
    error); waits — for the read lock, earlier batch members or an idle
    worker — go to ``record_queue_wait``.
    All of it sits behind one lock and :meth:`stats` reads it in one
    critical section.
    """

    def __init__(self, max_pending: int):
        self.max_pending = max_pending
        self.started_at = now()
        self._lock = threading.Lock()
        self._inflight = 0
        self._counts = dict.fromkeys(
            ("completed", "errors", "timeouts", "rejected", "updates"), 0
        )
        self._latencies: deque = deque(maxlen=LATENCY_WINDOW)  # (end time, seconds)
        self._queue_waits: deque = deque(maxlen=LATENCY_WINDOW)  # seconds

    def admit(self, count: int) -> None:
        with self._lock:
            if self._inflight + count > self.max_pending:
                self._counts["rejected"] += count
                raise AdmissionError(
                    f"{self._inflight} queries in flight + {count} admitted would "
                    f"exceed max_pending={self.max_pending}"
                )
            self._inflight += count

    def release(self, count: int) -> None:
        with self._lock:
            self._inflight -= count

    @property
    def inflight(self) -> int:
        with self._lock:
            return self._inflight

    def count(self, what: str, n: int = 1) -> None:
        """``n`` more ``"rejected"`` (queries that waited past their
        bound), ``"timeouts"`` (past their deadline) or ``"updates"``."""
        with self._lock:
            self._counts[what] += n

    def record(self, request: Request, status: str) -> None:
        at = now()
        with self._lock:
            self._counts[_OUTCOME_COUNTS.get(status, "errors")] += 1
            if status == "ok":
                self._latencies.append((at, at - request.arrived))

    def record_queue_wait(self, seconds: float) -> None:
        with self._lock:
            self._queue_waits.append(seconds)

    def stats(self, at: float) -> Dict[str, object]:
        """The ``queries`` block as of the :func:`now` reading ``at``."""
        with self._lock:
            records = list(self._latencies)
            queue_waits = sorted(self._queue_waits)
            counters = dict(self._counts, inflight=self._inflight)
        uptime = at - self.started_at
        latencies = sorted(seconds for _, seconds in records)
        recent = [t for t, _ in records if t > at - 60.0]
        window = min(uptime, 60.0)
        return dict(
            counters,
            qps=(counters["completed"] / uptime) if uptime > 0 else 0.0,
            recent_qps=(len(recent) / window) if window > 0 else 0.0,
            p50_ms=1000 * _percentile(latencies, 0.50),
            p99_ms=1000 * _percentile(latencies, 0.99),
            queue_wait_p50_ms=1000 * _percentile(queue_waits, 0.50),
            queue_wait_p99_ms=1000 * _percentile(queue_waits, 0.99),
            queue_wait_max_ms=1000 * (queue_waits[-1] if queue_waits else 0.0),
        )


class EngineService:
    """Snapshot-isolated concurrent serving over one :class:`KeywordSearchEngine`.

    Parameters
    ----------
    engine:
        The engine to serve.  The service registers epoch hooks on its
        ``IndexManager``; build **one** service per engine (a second
        registration would deadlock writes against itself).
    max_pending:
        Admission bound on concurrently in-flight queries across the whole
        service (single searches and batch members alike).  Work beyond it
        is rejected with :class:`AdmissionError` instead of queuing without
        bound.
    max_queue_wait:
        Bound on the time a query may spend *waiting* — for the read
        lock (every request, behind an update epoch) and behind the
        earlier members of its batch (:meth:`search_many`) — separately
        from its execution time, so a cold CPU-bound burst sheds load
        instead of running every late query anyway.  A read hold that
        waits past the bound is rejected as backpressure
        (:class:`AdmissionError`, the whole batch at once), a batch
        member that does gets a ``timeout`` outcome, either **without
        executing**; every wait is recorded in the ``queue_wait``
        histogram surfaced by :meth:`stats`.  ``None`` means waits are
        recorded but unbounded.  A request's deadline ends the same waits
        if it comes first: :class:`DeadlineExceeded` for the read lock, a
        ``timeout`` outcome for a batch member.
    """

    def __init__(
        self,
        engine,
        max_pending: int = 64,
        max_queue_wait: Optional[float] = None,
    ):
        if max_pending < 1:
            raise ValueError(f"max_pending must be >= 1, got {max_pending}")
        self.engine = engine
        self.max_pending = max_pending
        self.max_queue_wait = max_queue_wait
        self._rw = _ReadWriteLock()
        self._closed = False

        self._ledger = QueryLedger(max_pending)
        self._epoch_at_begin = -1

        # Every update batch — whichever path issues it — excludes readers
        # for exactly the span of its mutations.
        engine.index_manager.add_epoch_hooks(
            begin=self._epoch_begin, commit=self._epoch_commit
        )

    # ------------------------------------------------------------------
    # Write path (serialized, exclusive)
    # ------------------------------------------------------------------

    def _epoch_begin(self, epoch: int) -> None:
        self._rw.acquire_write()
        # Safe unlocked: writes are serialized, so exactly one epoch is
        # between begin and commit at any time.
        self._epoch_at_begin = epoch

    def _epoch_commit(self, epoch: int) -> None:
        # Commit hooks run even for aborted/no-op batches (the lock must
        # be released); only a batch that advanced the epoch is an update.
        if epoch != self._epoch_at_begin:
            self._ledger.count("updates")
        self._rw.release_write()

    def update(self, adds: Sequence = (), removes: Sequence = ()) -> Dict[str, int]:
        """Apply one atomic update batch (adds + removes, one epoch).

        Blocks until active readers drain, applies under exclusion, and
        returns the applied counts plus the new epoch/versions.
        """
        changed = self.engine.index_manager.apply_batch(adds=adds, removes=removes)
        return {
            "changed": changed,
            "epoch": self.engine.index_manager.epoch,
            "summary_version": self.engine.summary.snapshot_key,
            "index_version": self.engine.keyword_index.snapshot_key,
        }

    # ------------------------------------------------------------------
    # Read path (shared, lock-free against the pinned snapshot)
    # ------------------------------------------------------------------

    @contextmanager
    def _read_hold(self, count: int, request: Request):
        """The bracket every read runs in: admit ``count`` queries, take
        the read lock within ``max_queue_wait`` and before the request's
        deadline and record that wait, release both afterwards.  Yields
        the time the wait began.  Raises :class:`AdmissionError` at the
        in-flight bound or when an update epoch holds the lock past the
        wait bound, :class:`DeadlineExceeded` when it holds it past the
        deadline."""
        if self._closed:
            raise RuntimeError("service is closed")
        self._ledger.admit(count)
        try:
            submitted = now()
            bound = self.max_queue_wait
            until = request.wait_until(None if bound is None else submitted + bound)
            if not self._rw.acquire_read(until):
                if request.expired():
                    self._ledger.count("timeouts", count)
                    raise DeadlineExceeded(
                        f"request {request.id} reached its deadline behind "
                        f"an update epoch"
                    )
                self._ledger.count("rejected", count)
                raise AdmissionError(
                    f"read admission waited past max_queue_wait="
                    f"{bound:.3f}s behind an update epoch"
                )
            self._ledger.record_queue_wait(now() - submitted)
            try:
                yield submitted
            finally:
                self._rw.release_read()
        finally:
            self._ledger.release(count)

    def _read_one(self, run, request: Optional[Request]):
        """``run(snapshot)`` for one request under its own read hold; its
        outcome goes to the ledger."""
        if request is None:
            request = Request.new()
        with self._read_hold(1, request):
            try:
                outcome = run(self.engine.snapshot())
            except Exception:
                self._ledger.record(request, "error")
                raise
        self._ledger.record(request, "ok")
        return outcome

    def search(self, query, k=None, dmax=None, request: Optional[Request] = None):
        """One search under a fresh read hold; the concurrent-safe analogue
        of ``engine.search`` (:meth:`_read_hold` says when it is refused)."""
        return self._read_one(
            lambda snapshot: self.engine.search_on_snapshot(
                snapshot, query, k=k, dmax=dmax
            ),
            request,
        )

    def search_many(
        self,
        queries: Sequence,
        k=None,
        dmax=None,
        request: Optional[Request] = None,
    ) -> List[BatchOutcome]:
        """Run a batch of keyword queries in order on the calling thread,
        all under one read hold against **one** pinned snapshot.

        The whole batch is admitted (or rejected) atomically; a member
        whose turn comes past ``request``'s deadline is a ``timeout``.
        Results are byte-identical to sequential ``engine.search`` calls
        on the same snapshot.
        """
        queries = list(queries)
        if not queries:
            return []
        if request is None:
            request = Request.new()
        with self._read_hold(len(queries), request) as submitted:
            acquired = now()
            snapshot = self.engine.snapshot()
            outcomes = [
                self._run_one(snapshot, index, query, k, dmax, request.deadline,
                              submitted, acquired)
                for index, query in enumerate(queries)
            ]
        for outcome in outcomes:
            self._ledger.record(request, outcome.status)
        return outcomes

    def _run_one(
        self, snapshot, index, query, k, dmax, deadline, submitted, acquired
    ):
        started = now()
        # A member's wait behind the earlier members is recorded beside
        # the hold's lock wait; the bound applies to the two together.
        self._ledger.record_queue_wait(started - acquired)
        bound = self.max_queue_wait
        if bound is not None and started - submitted > bound:
            return BatchOutcome(index, query, "timeout")
        if deadline is not None and started >= deadline:
            return BatchOutcome(index, query, "timeout")
        try:
            result = self.engine.search_on_snapshot(snapshot, query, k=k, dmax=dmax)
        except Exception as exc:  # per-query isolation: one bad query
            return BatchOutcome(  # never poisons its batch siblings
                index, query, "error", error=exc,
                latency_seconds=now() - started,
            )
        return BatchOutcome(
            index, query, "ok", result=result,
            latency_seconds=now() - started,
        )

    def execute_ranked(
        self,
        query,
        rank: int = 1,
        limit: Optional[int] = 10,
        request: Optional[Request] = None,
    ):
        """Search, then run the rank-th candidate on the store — both under
        one read hold, so the answers come from the same epoch as the
        interpretation.  Returns ``(candidate, answers, timings)``
        (:meth:`~repro.core.engine.KeywordSearchEngine.execute_ranked`);
        candidate is ``None`` when the search has fewer than ``rank``
        interpretations — a whole search that ran, so it completed, on
        both tiers (the front end's 404).
        """
        return self._read_one(
            lambda snapshot: self.engine.execute_ranked(
                query, rank=rank, limit=limit, snapshot=snapshot
            ),
            request,
        )

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def stats(self) -> Dict[str, object]:
        """Service-level counters: QPS, latency percentiles, admission and
        epoch state, and the engine's memo-layer hit rates."""
        at = now()
        engine = self.engine
        # Bundle provenance of a warm-started engine: which artifact this
        # process serves, at which saved epoch, and how many delta-log
        # epochs the load replayed on top.  Built engines report None.
        artifact = getattr(engine, "artifact", None)
        return {
            "artifact": dict(artifact) if artifact is not None else None,
            "service": {
                "max_pending": self.max_pending,
                "uptime_seconds": at - self._ledger.started_at,
            },
            "queries": self._ledger.stats(at),
            "index_tier": engine.index_tier,
            "caches": engine.cache_stats(),
            "kernels": kernels.kernel_status(),
            "exploration": engine.exploration_stats(),
            "snapshot": {
                "epoch": engine.index_manager.epoch,
                "summary_version": engine.summary.snapshot_key,
                "index_version": engine.keyword_index.snapshot_key,
            },
            "data": engine.data_stats(),
        }

    def close(self) -> None:
        """Stop accepting batches.  The epoch hooks stay registered, so
        direct engine updates remain serialized."""
        self._closed = True

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()

    def __repr__(self):
        return (
            f"EngineService(max_pending={self.max_pending}, "
            f"engine={self.engine!r})"
        )

