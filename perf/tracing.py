"""The traced run: per-layer metrics from spans recorded by the harness.

End-to-end metrics are always measured untraced (`untraced.py`).  This
pass loads the workload's bundle in-process with the workload's
configuration and replays every distinct request through a **staged
driver** that calls only public functions, in pipeline order::

    split_keywords -> engine.snapshot() -> keyword_index.lookup_all
      -> augment -> cost_model.element_costs -> explore_top_k
      -> map_to_query + canonical_form -> [engine.execute]
      -> result_to_json / answers_to_json + json.dumps
      -> protocol.write_frame / read_frame over an os.pipe

with a span (name, start, end, parent, request id) around each call.
Spans stay in memory and are written to ``--out/trace_<workload>.json``
when the run ends; a layer's self time is its span minus the part its
child spans cover.  The staged driver must return the same ranked
candidates as ``engine.search`` for every request — otherwise it measures
a different program — and its stage sum must land within 10 % of
``SearchResult.timings["total"]``; the gap between the traced request
spans and the untraced ``engine.search`` is `loadgen.trace_overhead_pct`.
Spans inside ``src/`` are a later issue.

Counts come from ``ExplorationResult``, from ``engine.cache_stats()`` and
from the server's ``/stats`` read after an untraced open-loop round; the
remaining service-level numbers (HTTP overhead, dispatch overhead, memo
hit cost, update cost) come from sequential passes described beside each.
"""

from __future__ import annotations

import contextlib
import fcntl
import json
import os
import random
import shutil
import statistics
import time
from typing import (Callable, Dict, Iterator, List, NamedTuple, Optional,
                    Sequence, Tuple)

from repro.core.engine import (KeywordSearchEngine, QueryCandidate, SearchResult,
                               split_keywords)
from repro.core.exploration import explore_top_k
from repro.core.query_mapping import QueryMappingError, map_to_query
from repro.query.isomorphism import canonical_form
from repro.rdf.ntriples import parse_ntriples
from repro.service import EngineService
from repro.service.http import answers_to_json, candidate_to_json, result_to_json
from repro.service.protocol import read_frame, write_frame
from repro.summary.augmentation import augment

import procs
import untraced
from loadgen import SENDERS, Client, Sample, open_loop, percentile
from workloads import (EXECUTE_LIMIT, UPDATE_LAG, WORKLOADS, Request,
                       UpdateStream, Workload)

#: Replays of each distinct request through the staged driver, and
#: sequential HTTP / in-process service calls per distinct request:
#: (full, --quick).  The smoke run checks names and plumbing, not numbers.
REPLAYS = (5, 1)
SEQUENTIAL_REPS = (3, 1)
#: Steady-state updates timed in-process for the `maintenance.*` metrics.
TIMED_UPDATES = 10
K_SWEEP = (1, 10, 50, 100)
#: How far the staged driver's stage sum may be from ``timings["total"]``
#: before the traced run is marked invalid.
MAX_STAGE_GAP = 0.10

#: Pipeline stages whose sum is compared with ``timings["total"]``.
PIPELINE = ("keyword.lookup", "summary.augment", "scoring.element_costs",
            "core.explore", "core.query_mapping")

PER_LAYER = {
    "rdf.parse_s": "s",
    "storage.build_s": "s",
    "storage.build_peak_rss_mb": "MB",
    "storage.load_ms": "ms",
    "storage.first_search_ms": "ms",
    "service.ready_s": "s",
    "storage.bundle_bytes": "bytes",
    "core.snapshot_us": "us",
    "keyword.lookup_us": "us",
    "keyword.matches_per_keyword": "count",
    "keyword.lookup_hit_rate": "ratio",
    "summary.augment_us": "us",
    "summary.overlay_elements": "count",
    "scoring.element_costs_us": "us",
    "core.explore_us": "us",
    "core.cursors_created": "count",
    "core.cursors_popped": "count",
    "core.cursors_pruned": "count",
    "core.candidates_offered": "count",
    "core.subgraphs_per_popped": "ratio",
    "core.query_mapping_us": "us",
    "core.candidates_per_subgraph": "ratio",
    "core.search_us": "us",
    "core.search_ms_k1": "ms",
    "core.search_ms_k10": "ms",
    "core.search_ms_k50": "ms",
    "core.search_ms_k100": "ms",
    "service.memo_hit_us": "us",
    "service.memo_hit_rate": "ratio",
    "service.search_overhead_us": "us",
    "service.serialize_us": "us",
    "service.payload_bytes": "bytes",
    "service.http_overhead_ms": "ms",
    "service.queue_wait_p50_ms": "ms",
    "service.queue_wait_p99_ms": "ms",
    "service.rejected": "count",
    "service.frame_roundtrip_us": "us",
    "service.dispatch_overhead_ms": "ms",
    "service.worker_restarts": "count",
    "service.worker_rss_mb": "MB",
    "query.execute_us": "us",
    "query.answers_per_request": "count",
    "service.answers_serialize_us": "us",
    "storage.postings_hit_rate": "ratio",
    "storage.postings_cache_fill": "ratio",
    "maintenance.update_ms": "ms",
    "maintenance.first_update_ms": "ms",
    "storage.wal_bytes_per_update": "bytes",
    "maintenance.post_update_search_ms": "ms",
    "maintenance.final_epoch": "count",
    "loadgen.lag_p95_ms": "ms",
    "loadgen.search_p99_ms": "ms",
    "loadgen.search_p99_samples": "count",
    "loadgen.within_limit_share": "ratio",
    "loadgen.update_p50_ms": "ms",
    "loadgen.trace_overhead_pct": "%",
}


# ----------------------------------------------------------------------
# Spans
# ----------------------------------------------------------------------

class Tracer:
    """In-memory span recorder; one instance per traced run."""

    def __init__(self):
        self.spans: List[Dict[str, object]] = []
        self._open: List[int] = []

    @contextlib.contextmanager
    def span(self, name: str, request: int) -> Iterator[Dict[str, object]]:
        record = {
            "id": len(self.spans), "name": name, "request": request,
            "parent": self._open[-1] if self._open else None,
            "start": 0.0, "end": 0.0,
        }
        self.spans.append(record)
        self._open.append(record["id"])
        record["start"] = time.perf_counter()
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._open.pop()

    def self_seconds(self) -> List[float]:
        """Per span: its duration minus what its child spans cover."""
        out = [s["end"] - s["start"] for s in self.spans]
        for s in self.spans:
            if s["parent"] is not None:
                out[s["parent"]] -= s["end"] - s["start"]
        return out

    def by_request(self) -> Dict[int, Dict[str, float]]:
        """request id -> {span name: self time in seconds}."""
        table: Dict[int, Dict[str, float]] = {}
        for s, own in zip(self.spans, self.self_seconds()):
            row = table.setdefault(s["request"], {})
            row[s["name"]] = row.get(s["name"], 0.0) + own
        return table


# ----------------------------------------------------------------------
# The staged driver
# ----------------------------------------------------------------------

class Staged(NamedTuple):
    """What one staged replay produced, for checks and counts."""

    result: SearchResult
    overlay_elements: int
    mapped: int  # subgraphs that mapped to a query, before deduplication
    answers: Optional[list]
    body: bytes


def map_candidates(snapshot, subgraphs, augmented_graph) -> Tuple[List[QueryCandidate], int]:
    """Task 5 from its public parts: map each subgraph, keep the first of
    every canonical form.  Returns the candidates and how many subgraphs
    mapped to a query at all."""
    type_pred = snapshot.graph.preferred_type_predicate
    subclass_pred = snapshot.graph.preferred_subclass_predicate
    candidates: List[QueryCandidate] = []
    seen = set()
    mapped = 0
    for subgraph in subgraphs:
        try:
            query = map_to_query(subgraph, augmented_graph,
                                 type_predicate=type_pred,
                                 subclass_predicate=subclass_pred)
        except QueryMappingError:
            continue
        mapped += 1
        form = canonical_form(query)
        if form in seen:
            continue
        seen.add(form)
        candidates.append(
            QueryCandidate(query, subgraph.cost, subgraph, rank=len(candidates) + 1)
        )
    return candidates, mapped


def staged_request(tracer: Tracer, engine: KeywordSearchEngine, request: Request,
                   rid: int, pipe: Tuple[object, object]) -> Staged:
    span = tracer.span
    with span("request", rid):
        with span("keyword.split", rid):
            keywords = split_keywords(request.key)
        with span("core.snapshot", rid):
            snapshot = engine.snapshot()
        with span("keyword.lookup", rid):
            matches = snapshot.keyword_index.lookup_all(keywords)
        effective = [m for m in matches if m]
        with span("summary.augment", rid):
            augmented = augment(snapshot.summary, effective)
        with span("scoring.element_costs", rid):
            costs = snapshot.cost_model.element_costs(augmented)
        with span("core.explore", rid):
            exploration = explore_top_k(
                augmented, costs, k=snapshot.k, dmax=snapshot.dmax,
                guided=snapshot.guided, use_vectorized=snapshot.use_vectorized,
            )
        with span("core.query_mapping", rid):
            candidates, mapped = map_candidates(
                snapshot, exploration.subgraphs, augmented.graph
            )
        result = SearchResult(
            keywords, candidates, matches,
            [kw for kw, m in zip(keywords, matches) if not m], exploration, {},
        )
        answers = None
        if request.kind == "execute":
            with span("query.execute", rid):
                answers = engine.execute(candidates[0], limit=EXECUTE_LIMIT)
            with span("service.answers_serialize", rid):
                payload = {"candidate": candidate_to_json(candidates[0]),
                           "answers": answers_to_json(answers)}
                body = json.dumps(payload).encode("utf-8")
        else:
            with span("service.serialize", rid):
                payload = result_to_json(result)
                body = json.dumps(payload).encode("utf-8")
        with span("service.frame_roundtrip", rid):
            reader, writer = pipe
            write_frame(writer, {"ok": True, "result": payload, "epoch": 0})
            read_frame(reader)
    return Staged(result, len(augmented.graph.added_element_keys()), mapped,
                  answers, body)


@contextlib.contextmanager
def frame_pipe() -> Iterator[Tuple[object, object]]:
    """An os.pipe big enough to hold one whole result frame, so a single
    thread can write a frame and then read it back."""
    read_fd, write_fd = os.pipe()
    fcntl.fcntl(write_fd, fcntl.F_SETPIPE_SZ, 1 << 20)
    with os.fdopen(read_fd, "rb", buffering=0) as reader, \
            os.fdopen(write_fd, "wb") as writer:
        yield reader, writer


# ----------------------------------------------------------------------
# Pieces of the traced run
# ----------------------------------------------------------------------

def timed(call: Callable[[], object]) -> float:
    started = time.perf_counter()
    call()
    return time.perf_counter() - started


def mix_mean(workload: Workload, per_request: Sequence[float]) -> float:
    """Expected value under the workload's request mix."""
    return sum(w * x for w, x in zip(workload.weights(), per_request))


def cache_rate(stats: Dict[str, object], name: str, field: str = "hit_rate") -> float:
    """A cache statistic from /stats; summed over the worker processes
    when the dispatcher answers, because the workers serve the reads."""
    sources = [w.get("caches", {}) for w in stats.get("workers", [])] or [stats["caches"]]
    rows = [s[name] for s in sources if name in s]
    if not rows:
        return 0.0
    if field == "hit_rate":
        hits = sum(r["hits"] for r in rows)
        lookups = hits + sum(r["misses"] for r in rows)
        return hits / lookups if lookups else 0.0
    return sum(r["size"] for r in rows) / max(1, sum(r["maxsize"] for r in rows))


def sequential_http_ms(server: procs.Server, requests: Sequence[Request],
                       reps: int) -> List[float]:
    """Median latency per distinct request, one client, one at a time."""
    client = Client(server.host, server.port, {})
    try:
        return [
            statistics.median(client.send(r).latency_ms for _ in range(reps))
            for r in requests
        ]
    finally:
        client.close()


def service_call(service: EngineService, request: Request) -> Callable[[], object]:
    if request.kind == "execute":
        return lambda: service.execute_ranked(request.key, rank=1, limit=EXECUTE_LIMIT)
    return lambda: service.search(request.key)


def update_costs(workload: Workload, bundle: str, seed: int, work: str) -> Dict[str, float]:
    """`maintenance.*` from an in-process writer over a private copy of
    the bundle with its WAL attached, driven like the server is."""
    private = os.path.join(work, "writer.reprobundle")
    shutil.copyfile(bundle, private)
    engine = KeywordSearchEngine.load(private, attach_wal=True, **workload.engine_config)
    service = EngineService(engine)
    queries = workload.queries
    stream = UpdateStream(seed)
    wal = private + ".wal"

    def apply_next() -> float:
        adds, removes = stream.delta(stream.sent)
        stream.sent += 1
        return timed(lambda: service.update(adds=adds, removes=removes))

    try:
        for q in queries:
            service.search(q)
        first = apply_next()
        for _ in range(UPDATE_LAG):
            apply_next()
        wal_before = os.path.getsize(wal)
        updates, searches = [], []
        for n in range(TIMED_UPDATES):
            updates.append(apply_next())
            searches.append(timed(lambda: service.search(queries[n % len(queries)])))
        wal_after = os.path.getsize(wal)
    finally:
        service.close()
        engine.delta_log.close()
    return {
        "maintenance.first_update_ms": 1000 * first,
        "maintenance.update_ms": 1000 * statistics.median(updates),
        "maintenance.post_update_search_ms": 1000 * statistics.median(searches),
        "storage.wal_bytes_per_update": (wal_after - wal_before) / TIMED_UPDATES,
    }


def server_side(session: untraced.Session, seed: int, seconds: float, work: str,
                reps: int) -> Tuple[Dict[str, float], List[Sample], List[str], List[float]]:
    """One untraced open-loop round against the running server, then the
    server's own counters and a sequential pass over the distinct
    requests.  Returns metric values, the round's samples, failures, and
    the sequential HTTP latency per distinct request."""
    workload, server = session.workload, session.server
    requests = workload.distinct_requests()
    values = {
        "storage.build_s": session.build.seconds,
        "storage.build_peak_rss_mb": session.build.peak_rss_mb,
        "storage.bundle_bytes": float(session.build.bytes),
        "service.ready_s": server.ready_seconds,
    }
    clients = [Client(server.host, server.port, untraced.expected_digests(session))
               for _ in range(SENDERS)]
    # One round as long as one of the untraced run's.
    schedule = untraced.make_schedule(
        workload, untraced.round_size(workload, seconds),
        random.Random(seed), session.updates)
    samples = open_loop(clients, schedule, workload.rate)
    for client in clients:
        client.close()
    reads = untraced.read_latencies(samples)
    values["loadgen.lag_p95_ms"] = percentile([s.lag_ms for s in samples], 0.95)
    values["loadgen.search_p99_ms"] = percentile(reads, 0.99)
    values["loadgen.search_p99_samples"] = float(len(reads))
    values["loadgen.within_limit_share"] = untraced.within_limit_share(
        samples, workload.limit_ms)
    update_ms = [s.latency_ms for s in samples if s.kind == "update"]
    if update_ms:
        values["loadgen.update_p50_ms"] = statistics.median(update_ms)

    stats = server.stats()
    values["service.queue_wait_p50_ms"] = stats["queries"]["queue_wait_p50_ms"]
    values["service.queue_wait_p99_ms"] = stats["queries"]["queue_wait_p99_ms"]
    values["service.rejected"] = float(stats["queries"]["rejected"])
    values["keyword.lookup_hit_rate"] = cache_rate(stats, "keyword_lookups")
    values["service.memo_hit_rate"] = cache_rate(stats, "search_results")
    values["storage.postings_hit_rate"] = cache_rate(stats, "postings")
    values["storage.postings_cache_fill"] = cache_rate(stats, "postings", "fill")
    values["maintenance.final_epoch"] = float(stats["snapshot"]["epoch"])

    http_ms = sequential_http_ms(server, requests, reps)
    if workload.workers:
        values["service.worker_restarts"] = float(stats["dispatch"]["restarts"])
        values["service.worker_rss_mb"] = sum(
            w.get("pss_kb", 0) for w in stats["workers"]) / 1024.0
        # A copy of the bundle (the WAL has one writer) served in-process:
        # the only difference between the two sequential passes is the
        # dispatch tier.
        copy = os.path.join(work, "plain.reprobundle")
        shutil.copyfile(session.bundle, copy)
        plain = procs.Server(
            copy, WORKLOADS["cold_search"].serve_flags,
            os.path.join(work, "plain.log"),
        ).start()
        try:
            sequential_http_ms(plain, requests, 1)  # warm, as the other is
            plain_ms = sequential_http_ms(plain, requests, reps)
        finally:
            plain.stop()
        values["service.dispatch_overhead_ms"] = mix_mean(
            workload, [a - b for a, b in zip(http_ms, plain_ms)])
    failures = [f for c in clients for f in c.failures]
    return values, samples, failures, http_ms


def service_layer(workload: Workload, bundle: str, http_ms: Sequence[float],
                  reps: int) -> Dict[str, float]:
    """The in-process service layer under the server's configuration:
    what `EngineService` adds to the pipeline, and what HTTP adds to it."""
    requests = workload.distinct_requests()
    started = time.perf_counter()
    engine = KeywordSearchEngine.load(
        bundle, attach_wal=False, replay_wal=False, **workload.engine_config)
    values = {"storage.load_ms": 1000 * (time.perf_counter() - started)}
    service = EngineService(engine)
    try:
        values["storage.first_search_ms"] = 1000 * timed(
            service_call(service, requests[0]))
        service_ms, bare_ms = [], []
        for request in requests:
            through_service = service_call(service, request)
            snapshot = engine.snapshot()

            def bare():
                return engine.search_on_snapshot(snapshot, request.key)

            through_service()
            pairs = [(timed(through_service), timed(bare))
                     for _ in range(reps)]
            service_ms.append(1000 * statistics.median(a for a, _ in pairs))
            bare_ms.append(1000 * statistics.median(b for _, b in pairs))
    finally:
        service.close()
    values["service.http_overhead_ms"] = mix_mean(
        workload, [a - b for a, b in zip(http_ms, service_ms)])
    if workload.kind != "execute":
        values["service.search_overhead_us"] = 1000 * mix_mean(
            workload, [a - b for a, b in zip(service_ms, bare_ms)])
    if workload.engine_config["search_cache_size"]:
        values["service.memo_hit_us"] = 1000 * mix_mean(workload, service_ms)
    return values


def replay_staged(tracer: Tracer, engine: KeywordSearchEngine,
                  requests: Sequence[Request], replays: int):
    """Replay every distinct request ``replays`` times through the staged
    driver and as often through ``engine.search``.

    Returns one `Staged` per request (counts are the same on every
    replay), the median ``timings["total"]`` per request in seconds, and
    the requests on which the staged candidates differ from the engine's.
    Request ids are ``index of the distinct request * replays + replay``.
    """
    rows, totals, problems = [], [], []
    with frame_pipe() as pipe:
        for i, request in enumerate(requests):
            reference = engine.search(request.key)
            untraced_totals = []
            for rep in range(replays):
                # Alternate, so that a slow moment of the host weighs on
                # the traced and the untraced side alike.
                row = staged_request(tracer, engine, request, i * replays + rep, pipe)
                untraced_totals.append(engine.search(request.key).timings["total"])
            rows.append(row)
            totals.append(statistics.median(untraced_totals))
            if [candidate_to_json(c) for c in row.result.candidates] != \
                    [candidate_to_json(c) for c in reference.candidates]:
                problems.append(
                    f"staged driver and engine.search disagree on {request.key!r}")
    return rows, totals, problems


def span_metrics(workload: Workload, tracer: Tracer, rows: Sequence[Staged],
                 totals: Sequence[float], replays: int) -> Tuple[Dict[str, float], float]:
    """Per-layer times and counts from the staged replays, plus how far
    the stage sum is from ``timings["total"]`` (as a share of it)."""
    by_request = tracer.by_request()

    def stage_us(*names: str) -> float:
        """Mix-weighted mean over requests of the median over replays."""
        return 1e6 * mix_mean(workload, [
            statistics.median(
                sum(by_request[i * replays + rep].get(n, 0.0) for n in names)
                for rep in range(replays))
            for i in range(len(rows))
        ])

    def count_mean(pick: Callable[[Staged], float]) -> float:
        return mix_mean(workload, [pick(row) for row in rows])

    values = {
        f"{name}_us": stage_us(name)
        for name in PIPELINE + (
            "core.snapshot", "service.serialize", "service.answers_serialize",
            "service.frame_roundtrip", "query.execute")
    }
    values["core.search_us"] = stage_us(*PIPELINE)
    values["keyword.matches_per_keyword"] = count_mean(
        lambda s: sum(len(m) for m in s.result.matches) / len(s.result.matches))
    values["summary.overlay_elements"] = count_mean(lambda s: s.overlay_elements)
    for field in ("cursors_created", "cursors_popped", "cursors_pruned",
                  "candidates_offered"):
        values[f"core.{field}"] = count_mean(
            lambda s, f=field: getattr(s.result.exploration, f))
    values["core.subgraphs_per_popped"] = count_mean(
        lambda s: len(s.result.exploration.subgraphs)
        / max(1, s.result.exploration.cursors_popped))
    values["core.candidates_per_subgraph"] = count_mean(
        lambda s: len(s.result.candidates) / max(1, s.mapped))
    values["service.payload_bytes"] = count_mean(lambda s: len(s.body))
    if workload.kind == "execute":
        values["query.answers_per_request"] = count_mean(lambda s: len(s.answers))

    untraced_us = 1e6 * mix_mean(workload, totals)
    traced_us = stage_us(*PIPELINE, "request", "keyword.split", "core.snapshot")
    values["loadgen.trace_overhead_pct"] = 100 * (traced_us - untraced_us) / untraced_us
    return values, abs(values["core.search_us"] - untraced_us) / untraced_us


def run_traced(workload: Workload, inputs: untraced.Inputs, seconds: float,
               work: str, out: Optional[str]) -> Dict[str, object]:
    seed = inputs.seed
    replays, reps = REPLAYS[inputs.quick], SEQUENTIAL_REPS[inputs.quick]
    values = dict.fromkeys(PER_LAYER, 0.0)
    requests = workload.distinct_requests()
    with open(inputs.data(workload.dataset)[0]) as fh:
        values["rdf.parse_s"] = timed(lambda: sum(1 for _ in parse_ntriples(fh)))

    session = untraced.Session(workload, inputs, work)
    try:
        problems = untraced.verify_warmup(session)
        server_values, samples, failures, http_ms = server_side(
            session, seed, seconds, work, reps)
        values.update(server_values)
        problems += failures
        values.update(service_layer(workload, session.bundle, http_ms, reps))
        if workload.kind == "update_mix":
            values.update(update_costs(workload, session.bundle, seed, work))

        # The staged driver runs with the memo off: it is the pipeline
        # that is traced, and a memo hit would skip it.
        engine = KeywordSearchEngine.load(
            session.bundle, attach_wal=False, replay_wal=False,
            **dict(workload.engine_config, search_cache_size=0))
        tracer = Tracer()
        rows, totals, disagreements = replay_staged(tracer, engine, requests, replays)
        problems += disagreements
        if workload.name == "cold_search":
            # The paper's Fig. 6a: time against k, tracked beside the rest.
            for k in K_SWEEP:
                values[f"core.search_ms_k{k}"] = 1000 * statistics.mean(
                    engine.search(r.key, k=k).timings["total"] for r in requests)
    finally:
        session.close()

    staged_values, stage_gap = span_metrics(workload, tracer, rows, totals, replays)
    values.update(staged_values)
    invalid = []
    if stage_gap > MAX_STAGE_GAP:
        invalid.append(
            f"stage sum is {100 * stage_gap:.1f} % away from timings['total'] "
            f"(limit {100 * MAX_STAGE_GAP:.0f} %): the staged driver did not "
            "time what engine.search does"
        )
    if out:
        os.makedirs(out, exist_ok=True)
        with open(os.path.join(out, f"trace_{workload.name}.json"), "w") as fh:
            json.dump({
                "workload": workload.name, "seed": seed,
                "requests": [r.key for r in requests], "replays": replays,
                "request_id": "index of the distinct request * replays + replay",
                "stage_gap": stage_gap,
                "spans": tracer.spans,
            }, fh)

    return untraced.result(
        workload, seed, seconds, trace=1, problems=problems, invalid=invalid,
        attempted=session.warm_attempted + len(samples),
        failed=untraced.failures(samples),
        metrics={
            name: {"value": float(values[name]), "unit": unit}
            for name, unit in PER_LAYER.items()
        },
    )
