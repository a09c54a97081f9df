"""The load generator: real HTTP from one process with two sender threads.

Open loop: requests have evenly spaced due times at the workload's fixed
rate and are sent on schedule whether or not earlier ones returned;
latency is measured *from the due time*, so a late send counts against
the server, and how late the generator ran is reported beside it.  Closed
loop: two clients each send their next request when the previous one
returned, for throughput, in passes of fixed work with a yardstick of
the host's speed between them.

A sender keeps one connection, asks for keep-alive and reconnects when
the server closed it, as real clients do.  A response is a success when
its status is 200 and its payload is the one the warm-up recorded for
that request; anything else — other status, timeout, connection error,
payload mismatch — is a failure and is also charged the full timeout as
latency, so it misses every limit.
"""

from __future__ import annotations

import hashlib
import http.client
import json
import re
import statistics
import threading
import time
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from workloads import Request
from yardstick import at_reference_speed, yardstick

#: Sender threads, each with one connection, in both loops.
SENDERS = 2
#: Socket timeout of a request, and the latency a failed request is charged.
TIMEOUT_S = 10.0

#: The only part of a search payload that legitimately differs between two
#: responses to the same request on the same data.
_TIMINGS = re.compile(rb'"timings_ms": \{[^}]*\}')


def payload_digest(body: bytes) -> str:
    return hashlib.blake2b(_TIMINGS.sub(b"", body), digest_size=12).hexdigest()


class Sample:
    __slots__ = ("kind", "latency_ms", "lag_ms", "ok")

    def __init__(self, kind: str, latency_ms: float, lag_ms: float, ok: bool):
        self.kind = kind
        self.latency_ms = latency_ms
        self.lag_ms = lag_ms  # how late the generator sent it (open loop)
        self.ok = ok


class Client:
    """One sender: a persistent connection plus the payload check."""

    def __init__(self, host: str, port: int, expected: Dict[Tuple[str, str], str]):
        self.host = host
        self.port = port
        #: (kind, key) -> digest of the payload the warm-up verified.
        self.expected = expected
        self._conn: Optional[http.client.HTTPConnection] = None
        self.failures: List[str] = []

    def close(self) -> None:
        if self._conn is not None:
            self._conn.close()
            self._conn = None

    def fetch(self, request: Request) -> Tuple[int, bytes]:
        """One request/response; reconnects once if the kept-alive
        connection turns out to have been closed by the server."""
        try:
            return self._exchange(request)
        except (http.client.RemoteDisconnected, BrokenPipeError,
                ConnectionResetError):
            self.close()
            return self._exchange(request)

    def _exchange(self, request: Request) -> Tuple[int, bytes]:
        headers = {"Connection": "keep-alive"}
        if request.body is not None:
            headers["Content-Type"] = "application/json"
        if self._conn is None:
            self._conn = http.client.HTTPConnection(
                self.host, self.port, timeout=TIMEOUT_S
            )
        self._conn.request(
            request.method, request.path, body=request.body, headers=headers
        )
        response = self._conn.getresponse()
        body = response.read()
        if response.will_close:
            self.close()
        return response.status, body

    def send(self, request: Request, due: Optional[float] = None) -> Sample:
        """Send one request and classify the outcome.  ``due`` is the
        scheduled send time (open loop); latency counts from it."""
        started = time.perf_counter()
        origin = started if due is None else due
        try:
            status, body = self.fetch(request)
            done = time.perf_counter()
            problem = self.check(request, status, body)
        except (OSError, http.client.HTTPException) as exc:
            problem = f"{type(exc).__name__}: {exc}"
            self.close()
        lag_ms = 1000 * (started - origin)
        if problem is not None:
            self.failures.append(f"{request.method} {request.path}: {problem}")
            return Sample(request.kind, 1000 * TIMEOUT_S, lag_ms, False)
        return Sample(request.kind, 1000 * (done - origin), lag_ms, True)

    def check(self, request: Request, status: int, body: bytes) -> Optional[str]:
        if status != 200:
            return f"status {status}: {body[:200]!r}"
        if request.kind == "update":
            changed = json.loads(body).get("changed")
            if str(changed) != request.key:
                return f"update changed {changed} triples, expected {request.key}"
            return None
        want = self.expected.get((request.kind, request.key))
        if want is not None and payload_digest(body) != want:
            return "payload differs from the one verified in warm-up"
        return None


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def quartile_spread(values: Sequence[float]) -> float:
    """(Q3 - Q1) / median, the spread statistic the acceptance uses."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    mid = statistics.median(values)
    return (q3 - q1) / mid if mid else 0.0


def open_loop(
    clients: Sequence[Client], schedule: Sequence[Request], rate: float
) -> List[Sample]:
    """Send ``schedule`` at ``rate`` per second; returns one sample per
    request in schedule order.  Whichever sender is free takes the next
    request and sleeps until it is due."""
    samples: List[Optional[Sample]] = [None] * len(schedule)
    lock = threading.Lock()
    position = [0]
    start = time.perf_counter() + 0.05

    def sender(client: Client) -> None:
        while True:
            with lock:
                index = position[0]
                position[0] += 1
            if index >= len(schedule):
                return
            due = start + index / rate
            delay = due - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            samples[index] = client.send(schedule[index], due)

    _run_threads([lambda c=c: sender(c) for c in clients])
    return [s for s in samples if s is not None]


class Pass:
    """One closed-loop pass: a fixed piece of work, how long it took and
    what the yardstick took around it."""

    __slots__ = ("samples", "seconds", "yard_s")

    def __init__(self, samples: List[Sample], seconds: float, yard_s: float):
        self.samples = samples
        self.seconds = seconds
        self.yard_s = yard_s  # mean of the yardsticks before and after

    @property
    def raw_qps(self) -> float:
        return sum(1 for s in self.samples if s.ok) / self.seconds

    @property
    def qps(self) -> float:
        """Throughput at the reference host speed (see yardstick.py)."""
        return sum(1 for s in self.samples if s.ok) / at_reference_speed(
            self.seconds, [self.yard_s])


def closed_passes(
    clients: Sequence[Client],
    draw_pass: Callable[[], Sequence[Sequence[Request]]],
    seconds: float,
) -> List[Pass]:
    """Closed loop for about ``seconds``: passes of fixed work, a
    yardstick between every two.

    ``draw_pass()`` gives each client its requests of one pass — the same
    multiset every time, only the order differs.  Every client sends its
    next request when the previous one returned; the pass lasts from the
    common start until the last client is done.  A pass that has begun is
    finished, so at least one is run.
    """
    passes: List[Pass] = []
    deadline = time.perf_counter() + seconds
    yard = yardstick()
    while not passes or time.perf_counter() < deadline:
        work = draw_pass()
        per_client: List[List[Sample]] = [[] for _ in clients]
        barrier = threading.Barrier(len(clients))
        starts = [0.0] * len(clients)
        ends = [0.0] * len(clients)

        def loop(slot: int) -> None:
            client, mine = clients[slot], per_client[slot]
            barrier.wait()
            starts[slot] = time.perf_counter()
            for request in work[slot]:
                mine.append(client.send(request))
            ends[slot] = time.perf_counter()

        _run_threads([lambda s=s: loop(s) for s in range(len(clients))])
        before, yard = yard, yardstick()
        passes.append(Pass([s for chunk in per_client for s in chunk],
                           max(ends) - min(starts), (before + yard) / 2))
    return passes


def _run_threads(targets: Sequence[Callable[[], None]]) -> None:
    errors: List[BaseException] = []

    def guarded(target: Callable[[], None]) -> None:
        try:
            target()
        except BaseException as exc:  # surfaced in the main thread below
            errors.append(exc)

    threads = [
        threading.Thread(target=guarded, args=(t,), daemon=True) for t in targets
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    if errors:
        raise errors[0]
