"""The untraced run: set up, verify, measure the end-to-end metrics.

Run shape, the same for every workload:

1. write the N-Triples input from the seed;
2. set up once — ``repro build``, ``repro serve``, warm-up of every
   distinct request twice; `setup_s` is build + start-to-first-200 +
   warm-up;
3. compare the warm-up's payloads with a same-tier in-process reference;
4. a slice of the closed loop (two clients, for throughput), then ROUNDS
   times an open-loop round at the workload's fixed rate (latency from
   the due time) and another slice;
5. memory of the server's process tree, then tear it down.

``--seconds`` goes half to the ROUNDS open-loop rounds and half to the
ROUNDS + 1 closed-loop slices around them.

A closed-loop slice is a sequence of passes.  A pass is fixed work — every
client sends the same multiset of requests every time, in another order —
with a yardstick of the host's speed timed before and after it
(`yardstick.py`), and its throughput is reported at the reference speed.
`qps` is the median over all passes of the run.  Both halves of that are
there because of the host this was sized on, which slows down by a
quarter for seconds to minutes: fixed work takes the composition of a
time slice out of the number, and the yardstick takes the host's mood
out of it (README: over consecutive runs of 8 s of closed loop the
quartile spread of the raw median was 10-17 %, of the normalised median
5-7 %; the best pass spread by 9 %).  `setup_s` is scaled the same way,
by yardsticks timed around the build, the start and the warm-up.  A
latency is the median over the rounds of the per-round
percentile, with the quartile spread of the rounds beside it; latencies
are reported as measured and carry no bound.
"""

from __future__ import annotations

import os
import random
import shutil
import statistics
import time
from typing import Callable, Dict, List, Optional, Sequence

import checks
import procs
from loadgen import (SENDERS, Client, Pass, Sample, closed_passes, open_loop,
                     payload_digest, percentile, quartile_spread)
from workloads import (EXECUTE_LIMIT, UPDATE_EVERY, UPDATE_LAG, Request,
                       UpdateStream, Workload, execute_request,
                       search_request, write_dataset)
from yardstick import REF_S, at_reference_speed, yardsticks

#: Open-loop rounds; the closed loop runs in SLICES slices, one before
#: the first round and one after every round.
ROUNDS = 3
SLICES = ROUNDS + 1
#: Reads each client sends in one closed-loop pass, at least; a pass is
#: whole cycles over the distinct requests and lasts 0.2 to 0.6 s.
PASS_READS = 32
#: A run whose generator was later than this at the 95th percentile did
#: not offer the stated load and is marked invalid.
MAX_LAG_P95_MS = 5.0


class Inputs:
    """What one invocation generates and builds, shared by its runs: the
    N-Triples file of each dataset and the bundle of each (dataset, build
    flags), built once and its build time charged to every run that
    starts from a copy of it."""

    def __init__(self, directory: str, seed: int, quick: bool):
        self.directory = directory
        self.seed = seed
        self.quick = quick
        self._data: Dict[str, "tuple[str, int]"] = {}
        self._bundles: Dict[tuple, procs.BuildResult] = {}

    def data(self, dataset: str) -> "tuple[str, int]":
        """(path of the N-Triples file, number of triples in it)."""
        if dataset not in self._data:
            path = os.path.join(self.directory, f"{dataset}.nt")
            self._data[dataset] = (
                path, write_dataset(dataset, self.seed, self.quick, path))
        return self._data[dataset]

    def bundle(self, workload: Workload) -> procs.BuildResult:
        key = (workload.dataset, tuple(workload.build_flags))
        if key not in self._bundles:
            stem = os.path.join(
                self.directory, f"{workload.dataset}-{len(self._bundles)}")
            self._bundles[key] = procs.build_bundle(
                self.data(workload.dataset)[0], stem + ".reprobundle",
                workload.build_flags, stem + ".log",
            )
        return self._bundles[key]


class Session:
    """One set-up: a pristine copy of the bundle in a fresh directory (no
    WAL carried over), the server up, every distinct request warmed twice
    and, for `update_mix`, the update ramp applied."""

    def __init__(self, workload: Workload, inputs: Inputs, directory: str):
        self.workload = workload
        self.build = inputs.bundle(workload)
        self.bundle = os.path.join(directory, "data.reprobundle")
        shutil.copyfile(self.build.path, self.bundle)
        self.server = procs.Server(
            self.bundle, workload.serve_flags, os.path.join(directory, "serve.log")
        ).start()

        yards = yardsticks()
        started = time.perf_counter()
        client = Client(self.server.host, self.server.port, {})
        requests = workload.distinct_requests()
        try:
            self.first = fetch_all(client, requests)
            self.updates: Optional[UpdateStream] = None
            if workload.kind == "update_mix":
                # The first update pays the lazy materialisation; after
                # UPDATE_LAG adds and one add+remove the live size is flat
                # and a search's payload no longer changes between epochs.
                self.updates = UpdateStream(inputs.seed)
                for _ in range(UPDATE_LAG + 1):
                    if not client.send(self.updates.next_request()).ok:
                        raise RuntimeError(f"warm-up: {client.failures[-1]}")
            self.second = fetch_all(client, requests)
        finally:
            client.close()
        self.warm_seconds = time.perf_counter() - started
        self.warm_yards = yards + yardsticks()
        self.warm_attempted = 2 * len(requests) + (
            self.updates.sent if self.updates else 0
        )

    @property
    def raw_setup_seconds(self) -> float:
        return self.build.seconds + self.server.ready_seconds + self.warm_seconds

    @property
    def setup_seconds(self) -> float:
        """Build, start and warm-up, each at the reference host speed."""
        return (
            at_reference_speed(self.build.seconds, self.build.yards)
            + at_reference_speed(self.server.ready_seconds, self.server.ready_yards)
            + at_reference_speed(self.warm_seconds, self.warm_yards)
        )

    def close(self) -> None:
        self.server.stop()


def fetch_all(client: Client, requests: Sequence[Request]) -> Dict[str, bytes]:
    bodies = {}
    for request in requests:
        status, body = client.fetch(request)
        if status != 200:
            raise RuntimeError(
                f"{request.method} {request.path} -> {status} {body[:200]!r}"
            )
        bodies[request.key] = body
    return bodies


def verify_warmup(session: Session) -> List[str]:
    """Compare the warm-up's payloads with the same-tier reference."""
    workload = session.workload
    requests = workload.distinct_requests()
    engine = checks.load_reference(workload, session.bundle)
    problems = checks.compare_payloads(
        engine, requests, session.first, EXECUTE_LIMIT, "warm-up pass 1"
    )
    if session.updates is None:
        # Nothing changed in between: the second pass must repeat the first.
        return problems + [
            f"warm-up pass 2: {r.kind} {r.key!r} differs from pass 1"
            for r in requests
            if payload_digest(session.second[r.key])
            != payload_digest(session.first[r.key])
        ]
    for index in range(session.updates.sent):
        adds, removes = session.updates.delta(index)
        engine.index_manager.apply_batch(adds=adds, removes=removes)
    return problems + checks.compare_payloads(
        engine, requests, session.second, EXECUTE_LIMIT, "warm-up pass 2"
    )


def expected_digests(session: Session) -> Dict["tuple[str, str]", str]:
    """What the timed windows must keep returning: the verified second
    warm-up pass."""
    return {
        (r.kind, r.key): payload_digest(session.second[r.key])
        for r in session.workload.distinct_requests()
    }


def verify_after_updates(session: Session, data_path: str) -> List[str]:
    """After `update_mix`: the server must answer like an engine built
    from scratch over base + live batches (no ``limit``: the whole answer
    set), and count one epoch per update sent."""
    workload = session.workload
    problems = []
    epoch = session.server.stats()["snapshot"]["epoch"]
    if epoch != session.updates.sent:
        problems.append(
            f"/stats epoch {epoch} != {session.updates.sent} updates sent"
        )
    scratch = checks.scratch_engine(
        data_path, session.updates.live_triples(),
        like=checks.load_reference(workload, session.bundle),
    )
    queries = workload.queries
    client = Client(session.server.host, session.server.port, {})
    try:
        for requests in (
            [search_request(q) for q in queries],
            [execute_request(q, limit=10 ** 9) for q in queries],
        ):
            problems += checks.compare_payloads(
                scratch, requests, fetch_all(client, requests), None,
                "after updates",
            )
    finally:
        client.close()
    return problems


def make_schedule(workload: Workload, count: int, rng: random.Random,
                  updates: Optional[UpdateStream]) -> List[Request]:
    """``count`` requests of the workload's mix in arrival order."""
    if updates is None:
        return workload.reads(count, rng)
    reads = iter(workload.reads(count - count // UPDATE_EVERY, rng))
    return [
        updates.next_request() if i % UPDATE_EVERY == UPDATE_EVERY - 1
        else next(reads)
        for i in range(count)
    ]


def pass_drawer(workload: Workload, rng: random.Random,
                updates: Optional[UpdateStream]
                ) -> Callable[[], List[List[Request]]]:
    """Draws the work of one closed-loop pass: for every client whole
    cycles over the workload's reads, shuffled.  In `update_mix` every
    UPDATE_EVERY-th request of the first client is an update; only that
    client writes, so the updates stay one ordered sequence."""
    cycles = -(-PASS_READS // len(workload.queries))

    def draw() -> List[List[Request]]:
        work = []
        for slot in range(SENDERS):
            requests: List[Request] = []
            for _ in range(cycles):
                requests += workload.reads(len(workload.queries), rng)
            if updates is not None and slot == 0:
                reads, requests = requests, []
                for number, request in enumerate(reads, 1):
                    requests.append(request)
                    if number % (UPDATE_EVERY - 1) == 0:
                        requests.append(updates.next_request())
            work.append(requests)
        return work
    return draw


def metric(values: Sequence[float], unit: str) -> Dict[str, object]:
    """The median of the rounds' (or slices') values and their quartile
    spread."""
    return {
        "value": statistics.median(values),
        "unit": unit,
        "spread": quartile_spread(values),
        "samples": len(values),
    }


def phase(attempted: int, failed: int) -> Dict[str, int]:
    return {"attempted": attempted, "succeeded": attempted - failed,
            "failed": failed}


def failures(samples: Sequence[Sample]) -> int:
    return sum(1 for s in samples if not s.ok)


def read_latencies(samples: Sequence[Sample]) -> List[float]:
    return [s.latency_ms for s in samples if s.kind != "update"]


def validity(rounds: Sequence[Sequence[Sample]], rate: float) -> List[str]:
    """Reasons why the open loop did not offer the stated load."""
    reasons = []
    lag_p95 = percentile([s.lag_ms for r in rounds for s in r], 0.95)
    if lag_p95 > MAX_LAG_P95_MS:
        reasons.append(
            f"generator lag p95 {lag_p95:.2f} ms > {MAX_LAG_P95_MS} ms"
        )
    spacing_ms = 1000.0 / rate
    for number, samples in enumerate(rounds, 1):
        tail = [s.lag_ms for s in samples[-max(1, len(samples) // 10):]]
        if statistics.median(tail) > spacing_ms:
            reasons.append(f"round {number}: backlog still growing at its end")
    return reasons


def run_untraced(workload: Workload, inputs: Inputs, seconds: float,
                 work: str) -> Dict[str, object]:
    seed = inputs.seed
    slice_seconds = seconds / 2 / SLICES
    data_path, triples = inputs.data(workload.dataset)
    session = Session(workload, inputs, work)
    try:
        problems = verify_warmup(session)
        server = session.server
        expected = expected_digests(session)
        clients = [Client(server.host, server.port, expected) for _ in range(SENDERS)]
        rng = random.Random(seed)

        draw_pass = pass_drawer(workload, rng, session.updates)
        rounds: List[List[Sample]] = []
        slices: List[List[Pass]] = [
            closed_passes(clients, draw_pass, slice_seconds)]
        for _ in range(ROUNDS):
            rounds.append(open_loop(
                clients,
                make_schedule(workload, round_size(workload, seconds), rng,
                              session.updates),
                workload.rate,
            ))
            slices.append(closed_passes(clients, draw_pass, slice_seconds))
        rss_mb = server.pss_mb()
        for client in clients:
            client.close()
        problems += [f for c in clients for f in c.failures]
        if session.updates is not None:
            problems += verify_after_updates(session, data_path)
    finally:
        session.close()

    passes = [p for chunk in slices for p in chunk]
    closed = [s for p in passes for s in p.samples]
    pooled = [s for r in rounds for s in r]
    update_ms = [[s.latency_ms for s in r if s.kind == "update"] for r in rounds]
    phases = {
        "warmup": phase(session.warm_attempted, 0),
        "open": phase(len(pooled), failures(pooled)),
        "closed": phase(len(closed), failures(closed)),
    }
    attempted = sum(p["attempted"] for p in phases.values())
    failed = sum(p["failed"] for p in phases.values())
    return result(
        workload, seed, seconds, trace=0,
        problems=problems, invalid=validity(rounds, workload.rate),
        attempted=attempted, failed=failed,
        metrics={
            "setup_s": metric([session.setup_seconds], "s"),
            # The median pass of the run; its spread is that of the
            # slices' medians, as a latency's is that of the rounds.
            "qps": dict(
                metric([statistics.median(p.qps for p in chunk)
                        for chunk in slices], "1/s"),
                value=statistics.median(p.qps for p in passes)),
            "rss_mb": metric([rss_mb], "MB"),
            "bundle_mb": metric([session.build.bytes / 1e6], "MB"),
        },
        # What the open loop saw at the fixed rate, from the due time:
        # reported by every run, bounded by none (see README).
        latency={
            "p50_ms": metric(
                [percentile(read_latencies(r), 0.50) for r in rounds], "ms"),
            "p90_ms": metric(
                [percentile(read_latencies(r), 0.90) for r in rounds], "ms"),
            **({"update_p50_ms": metric(
                [statistics.median(u) for u in update_ms if u], "ms")}
               if any(update_ms) else {}),
        },
        triples=triples,
        phases=phases,
        diagnostics={
            "qps_raw": statistics.median(p.raw_qps for p in passes),
            "qps_raw_best": max(p.raw_qps for p in passes),
            "host_speed": REF_S / statistics.median(p.yard_s for p in passes),
            "passes": len(passes),
            "requests_per_pass": len(passes[0].samples),
            "rate_per_s": workload.rate,
            "reads_per_round": len(read_latencies(rounds[0])),
            "lag_p95_ms": percentile([s.lag_ms for s in pooled], 0.95),
            "p99_ms": percentile(read_latencies(pooled), 0.99),
            "p99_samples": len(read_latencies(pooled)),
            "limit_ms": workload.limit_ms,
            "within_limit_share": within_limit_share(pooled, workload.limit_ms),
            "updates_sent": session.updates.sent if session.updates else 0,
            "setup_raw_s": session.raw_setup_seconds,
            "build_s": session.build.seconds,
            "ready_s": session.server.ready_seconds,
            "warmup_s": session.warm_seconds,
        },
    )


def result(workload: Workload, seed: int, seconds: float, trace: int,
           problems: List[str], invalid: List[str], attempted: int,
           failed: int, metrics: Dict[str, Dict[str, object]],
           **extra: object) -> Dict[str, object]:
    """One run's record, as `results.json` keeps it and `run.py` prints it."""
    return {
        "workload": workload.name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "correct": not problems and failed == 0,
        "valid": not invalid,
        "invalid_reasons": invalid,
        "problems": problems[:20],
        "attempted": attempted,
        "failed": failed,
        "failed_share": failed / attempted,
        "metrics": metrics,
        **extra,
    }


def round_size(workload: Workload, seconds: float) -> int:
    """Requests in one open-loop round of a run that measures for
    ``seconds``: the rounds share half of them."""
    return max(1, round(workload.rate * seconds / 2 / ROUNDS))


def within_limit_share(samples: Sequence[Sample], limit_ms: float) -> float:
    """Share of the requests *sent* that succeeded within the limit."""
    return sum(1 for s in samples if s.ok and s.latency_ms <= limit_ms) / len(samples)
