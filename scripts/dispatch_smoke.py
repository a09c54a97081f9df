#!/usr/bin/env python
"""CI dispatch-smoke: prove the multiprocess serving tier is alive.

Boots a real ``repro serve --workers N --timeout 30 --bundle ...`` as a
subprocess, waits for its URL announcement, then over HTTP — every
request on **one** kept connection, and it is a failure if the server
closes it in between, or if a response, the 404 included, lacks an
``X-Request-Id`` or repeats one another response carried:
search, execute, update, search, execute — asserting the update's epoch
propagated to *every* worker (the sync broadcast acked), the new data is
immediately visible no matter which worker serves the follow-up search,
and a worker's execute path answers (rows, ``timings_ms``, ``limit: 0``
-> no rows, body bytes equal to ``json.dumps`` of the dict reference, the
rank-2 candidate equal to ``/search``'s, a 404 past the last rank) on
both sides of the update.  Around the update it also
proves, on every worker, that survival and freshness hold together: the
pre-update search, repeated after an update that touched none of its
keywords, is served from each worker's keyword-lookup memo (``hits``
grow, ``misses`` do not) while the updated keyword shows the new triple.
It also holds every worker to its import budget: right after start-up a
worker's proportional set size is under a ceiling that an HTTP stack or
numpy inside it would blow — the dispatcher's under one that
``http.server`` would blow, with no ``_ssl`` mapped — and at the end no
worker has imported numpy
(``kernels.loaded`` — nothing the smoke sends has a view wide enough) and
none has had a seed threshold refuted (``exploration.seed_fallbacks`` — a
second exploration behind a correct answer is what that counter is for),
and every worker reports a query plan in its plan LRU (``caches.plans``,
``0 < size <= maxsize``).

Then the crash-restart leg: ``SIGKILL`` the whole server group, append
what a crash mid-append leaves behind — an uncommitted entry torn inside
a multi-byte character — to ``<bundle>.wal``, and start the same command
again.  The restarted server must bind (the loader reads the torn tail
as "no further epoch", not as a decode error), stand at the epoch the
killed one committed, with every worker at that epoch straight from its
start-up load (``reloads == 0``: dispatcher and workers agree where the
log ends), and one more ``/update`` must commit, reach every worker by
WAL replay and be searchable.  Finishes with a SIGTERM and checks the
drain exits cleanly.

Use a bundle with no ``<bundle>.wal`` beside it: the smoke's updates are
logged there, and a second run would replay them.

Run under a hard ``timeout`` in CI so a deadlocked pipe fails the job in
minutes; any violated assertion exits nonzero.

Usage: python scripts/dispatch_smoke.py [bundle] [workers]
"""

import http.client
import json
import os
import re
import signal
import subprocess
import sys
import threading
import time
from urllib.parse import urlparse

from repro.service.encoding import answer_json_signature

#: A worker of this smoke (example bundle, 2 workers, CPython 3.11 on
#: x86-64 Linux) reads 12,190 KB Pss at its first ``/stats``: the
#: interpreter, the engine's modules, the frame protocol and the
#: encoders.  The ceiling is 14,145 KB — the reading while ``/stats``
#: still imported ``importlib.metadata`` for numpy's version — plus 25 %.
#: Before the worker stopped importing what it never runs it read
#: 27,600 KB — ``http.server`` and friends are ~10 MB of that, numpy
#: 9-16 MB — so either one coming back fails the job.  (Pss, not RSS: the
#: interpreter's and the bundle's shared pages are split between the
#: processes that map them.)
WORKER_START_PSS_CEILING_KB = 17_700

#: The dispatcher of this smoke (same bundle, host and interpreter) reads
#: 15,480 KB Pss at the same first ``/stats``: the interpreter, the writer
#: engine, the worker pool and the HTTP front end — ``repro.service.http``'s
#: own layer on ``socketserver``.  Same headroom rule: the reading plus
#: 25 %.  While the front end was ``http.server`` it read 19,960 KB, most
#: of the difference ``ssl`` (which ``http.client`` imports) and the
#: ``email`` header parser, so ``http.server`` coming back fails the job on
#: this ceiling, and ``ssl`` alone fails it on the ``_ssl`` mapping.
DISPATCHER_START_PSS_CEILING_KB = 19_350


class _KeptConnection:
    """One ``http.client`` connection for the whole smoke.  ``http.client``
    reconnects silently when ``auto_open`` is left on, so it is switched
    off after the first connect: a server that closed the connection
    between two requests makes the next one raise.  Every response must
    name its request in ``X-Request-Id``, each one a different id — across
    connections and server restarts too."""

    ids = set()

    def __init__(self, url):
        parsed = urlparse(url)
        self._conn = http.client.HTTPConnection(
            parsed.hostname, parsed.port, timeout=60
        )
        self._conn.connect()
        self._conn.auto_open = 0
        self.requests = 0
        self.last_body = b""  # the raw bytes of the latest response

    def _exchange(self, method, path, body=None, status=200):
        headers = {"Content-Type": "application/json"} if body else {}
        self._conn.request(method, path, body=body, headers=headers)
        self.requests += 1
        response = self._conn.getresponse()
        payload = self.last_body = response.read()
        assert response.status == status, (response.status, payload[:200])
        request_id = response.getheader("X-Request-Id")
        assert request_id, f"{method} {path}: {status} without an X-Request-Id"
        assert request_id not in self.ids, f"{method} {path}: {request_id} again"
        self.ids.add(request_id)
        assert not response.will_close, (
            f"server announced it will close the connection after "
            f"{method} {path}"
        )
        return json.loads(payload)

    def get(self, path):
        return self._exchange("GET", path)

    def post(self, path, payload, status=200):
        return self._exchange("POST", path, json.dumps(payload), status)

    def close(self):
        self._conn.close()


def check_dispatcher_memory(pid) -> int:
    """The dispatcher's Pss in KB, once it is known to be under its
    ceiling and to have no TLS library mapped."""
    with open(f"/proc/{pid}/smaps_rollup") as fh:
        pss_kb = next(int(l.split()[1]) for l in fh if l.startswith("Pss:"))
    assert 0 < pss_kb <= DISPATCHER_START_PSS_CEILING_KB, (
        f"dispatcher {pid} starts at {pss_kb} KB Pss > "
        f"{DISPATCHER_START_PSS_CEILING_KB} KB: is http.server back?"
    )
    with open(f"/proc/{pid}/maps") as fh:
        ssl = sorted({l.split()[-1] for l in fh if "_ssl" in l})
    assert not ssl, f"the dispatcher maps {ssl}: it never speaks TLS"
    return pss_kb


def check_execute(conn) -> None:
    """A worker evaluates a query: rows, flat timings, ``limit`` 0, the
    candidate ``/search`` ranks there, and a 404 past the last rank."""
    ask = {"q": "cimiano 2006", "rank": 1}
    executed = conn.post("/execute", ask)
    assert executed["answers"], "execute returned no answers"
    timings = executed["timings_ms"]
    assert "execute" in timings and all(
        isinstance(ms, float) for ms in timings.values()
    ), timings
    assert conn.post("/execute", dict(ask, limit=0))["answers"] == []
    # The worker writes the answers straight to bytes; the dict reference
    # (sort by signature, then json.dumps) must give the same body.
    unbounded = conn.post("/execute", dict(ask, limit=None))
    unbounded["answers"].sort(key=answer_json_signature)
    assert conn.last_body == json.dumps(unbounded).encode("ascii"), conn.last_body[:200]
    # A worker maps subgraphs only up to the rank asked for: the rank-2
    # candidate is the one the whole search ranks second, and a rank past
    # the last candidate (k+1 when the search finds k) is a 404.
    candidates = conn.get("/search?q=cimiano+2006")["candidates"]
    assert len(candidates) >= 2, candidates
    second = conn.post("/execute", dict(ask, rank=2))["candidate"]
    assert second == candidates[1], (second, candidates[1])
    conn.post("/execute", dict(ask, rank=len(candidates) + 1), status=404)


def lookup_counters(conn):
    """(hits, misses) of every live worker's keyword-lookup memo."""
    memos = [
        w["caches"]["keyword_lookups"]
        for w in conn.get("/stats")["workers"]
        if w.get("alive")
    ]
    return [(memo["hits"], memo["misses"]) for memo in memos]


def search_until(conn, query, workers, done):
    """Send ``query`` in batches (a batch fans out over the pool) until
    ``done(lookup counters of every worker)``; returns those counters."""
    for _ in range(20):
        conn.post("/search", {"queries": [query] * (4 * workers)})
        counters = lookup_counters(conn)
        if done(counters):
            return counters
    raise AssertionError(f"{query!r} never reached every worker: {counters}")


def start_server(bundle, workers):
    """``(process, url)`` of a ``repro serve --workers N`` in its own
    process group (so the crash leg can kill dispatcher and workers in
    one go), once it has announced its URL."""
    proc = subprocess.Popen(
        [
            sys.executable, "-m", "repro", "serve",
            "--bundle", bundle, "--workers", str(workers), "--port", "0",
            "--timeout", "30",
        ],
        stderr=subprocess.PIPE,
        text=True,
        start_new_session=True,
    )
    url = None
    for line in proc.stderr:
        print(line, end="", file=sys.stderr)
        match = re.search(r"serving on (http://\S+)", line)
        if match:
            url = match.group(1)
            break
    if url is None:
        proc.wait()
        raise AssertionError(
            f"server exited {proc.returncode} before announcing its URL"
        )
    # Keep draining stderr so the server never blocks on a full pipe.
    threading.Thread(
        target=lambda: [print(l, end="", file=sys.stderr) for l in proc.stderr],
        daemon=True,
    ).start()
    return proc, url


def kill_group(proc) -> None:
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    proc.wait(timeout=30)


def check_restart_after_torn_append(conn, workers, epoch) -> None:
    """The restarted server stands where the killed one committed, its
    workers with it, and the log takes the next epoch after the tear."""
    stats = conn.get("/stats")
    assert stats["snapshot"]["epoch"] == epoch, (
        f"restarted dispatcher at epoch {stats['snapshot']['epoch']}, the "
        f"killed one had committed {epoch}"
    )

    def workers_at(stats, epoch):
        live = [w for w in stats["workers"] if w.get("alive")]
        assert len(live) == workers, stats["workers"]
        assert [(w["epoch"], w["reloads"]) for w in live] == [(epoch, 0)] * workers, (
            f"workers disagree with the dispatcher about the log's end "
            f"(want epoch {epoch}, no reload): "
            f"{[(w['epoch'], w['reloads']) for w in live]}"
        )

    workers_at(stats, epoch)
    assert conn.get("/search?q=zzdispatchsmoke")["candidates"], (
        "the committed update did not survive the crash"
    )
    add = (
        '<http://example.org/smoke/pub2> '
        '<http://www.w3.org/2000/01/rdf-schema#label> '
        '"zzafterthetear paper" .'
    )
    updated = conn.post("/update", {"add": add})
    assert updated["changed"] == 1 and updated["epoch"] == epoch + 1, updated
    assert updated["workers_synced"] == workers, updated
    fresh = conn.get("/search?q=zzafterthetear")
    assert fresh["candidates"], "update after the torn tail is not searchable"
    workers_at(conn.get("/stats"), epoch + 1)


def main() -> int:
    bundle = sys.argv[1] if len(sys.argv) > 1 else "example.reprobundle"
    workers = int(sys.argv[2]) if len(sys.argv) > 2 else 2

    proc, url = start_server(bundle, workers)
    try:
        conn = _KeptConnection(url)
        before = conn.get("/stats")
        assert before["service"]["mode"] == "dispatch", before["service"]
        assert before["service"]["live_workers"] == workers
        for worker in before["workers"]:
            assert 0 < worker["pss_kb"] <= WORKER_START_PSS_CEILING_KB, (
                f"worker {worker['pid']} starts at {worker['pss_kb']} KB Pss "
                f"> {WORKER_START_PSS_CEILING_KB} KB: something it never runs "
                f"(an HTTP stack? numpy?) is imported again"
            )
        dispatcher_pss_kb = check_dispatcher_memory(proc.pid)

        hit = conn.get("/search?q=cimiano+2006")
        assert hit["candidates"], "pre-update search found no interpretations"
        check_execute(conn)
        # Every worker has looked both keywords up (a repeat is then served
        # by its result memo and never reaches the keyword index).
        search_until(
            conn, "cimiano 2006", workers,
            lambda counters: all(misses >= 2 for _, misses in counters),
        )

        add = (
            '<http://example.org/smoke/pub> '
            '<http://www.w3.org/2000/01/rdf-schema#label> '
            '"zzdispatchsmoke paper" .'
        )
        updated = conn.post("/update", {"add": add})
        assert updated["changed"] == 1, updated
        assert updated["workers_synced"] == workers, updated

        # The epoch emptied every worker's result memo, so the repeated
        # search runs the pipeline again — and since the update changed no
        # posting of "cimiano" or "2006", each worker (it replayed the
        # epoch) serves both keywords from its lookup memo.
        synced = lookup_counters(conn)
        served = search_until(
            conn, "cimiano 2006", workers,
            lambda counters: all(
                hits > before for (hits, _), (before, _) in zip(counters, synced)
            ),
        )
        assert [m for _, m in served] == [m for _, m in synced], (
            f"an unrelated update cost a worker its keyword lookups: "
            f"{synced} -> {served}"
        )

        fresh = conn.get("/search?q=zzdispatchsmoke")
        assert fresh["ignored_keywords"] == [], fresh
        assert fresh["candidates"], "update not visible after sync broadcast"
        check_execute(conn)

        after = conn.get("/stats")
        conn.close()
        assert after["http"] == {"connections": 1, "requests": conn.requests}, (
            after["http"]
        )
        live = [w for w in after["workers"] if w.get("alive")]
        assert len(live) == workers, after["workers"]
        epochs = [w["epoch"] for w in live]
        assert all(e == updated["epoch"] for e in epochs), (
            f"epoch did not advance on all workers: {epochs} "
            f"!= {updated['epoch']}"
        )
        assert not any(w["kernels"]["loaded"] for w in live), (
            f"a worker imported numpy for views this small: "
            f"{[w['kernels'] for w in live]}"
        )
        explored = [w["exploration"] for w in live]
        assert all(e["seeded"] > 0 for e in explored) and not any(
            e["seed_fallbacks"] for e in explored
        ), (
            f"a worker refuted a seed threshold and explored twice (or "
            f"never ran seeded): {explored}"
        )
        plans = [w["caches"]["plans"] for w in live]
        assert all(0 < p["size"] <= p["maxsize"] for p in plans), (
            f"a worker reports no query plan (or more than its LRU holds): {plans}"
        )
        print(
            f"# dispatch-smoke ok: {workers} workers all at epoch "
            f"{updated['epoch']}, update visible over HTTP, execute answers "
            f"on both sides of it, unrelated lookups survived it on every "
            f"worker, {conn.requests} requests on 1 connection; workers "
            f"started at {[w['pss_kb'] for w in before['workers']]} KB Pss "
            f"(ceiling {WORKER_START_PSS_CEILING_KB}) and none imported numpy; "
            f"the dispatcher at {dispatcher_pss_kb} KB Pss (ceiling "
            f"{DISPATCHER_START_PSS_CEILING_KB}), no _ssl mapped",
            file=sys.stderr,
        )

        # Crash, a torn append, restart.
        kill_group(proc)
        with open(bundle + ".wal", "ab") as wal:
            wal.write(
                f"\nB {updated['epoch']}\n".encode()
                + b'A <http://example.org/smoke/torn> '
                b'<http://www.w3.org/2000/01/rdf-schema#label> "z\xc3'
            )
        proc, url = start_server(bundle, workers)
        conn = _KeptConnection(url)
        check_restart_after_torn_append(conn, workers, updated["epoch"])
        conn.close()
        print(
            f"# dispatch-smoke ok: after SIGKILL and a torn append the server "
            f"restarted at epoch {updated['epoch']} with no worker reload, and "
            f"epoch {updated['epoch'] + 1} committed behind the tear; "
            f"{len(_KeptConnection.ids)} responses, as many request ids",
            file=sys.stderr,
        )
    except BaseException:
        kill_group(proc)
        raise
    proc.send_signal(signal.SIGTERM)
    try:
        code = proc.wait(timeout=30)
    except subprocess.TimeoutExpired:
        kill_group(proc)
        print("dispatch-smoke: server did not drain on SIGTERM", file=sys.stderr)
        return 1
    if code != 0:
        print(f"dispatch-smoke: server exited {code}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    deadline = threading.Timer(280.0, lambda: (_hard_exit()))

    def _hard_exit():  # belt and braces under CI's outer `timeout`
        print("dispatch-smoke: internal deadline exceeded", file=sys.stderr)
        os._exit(2)

    deadline.daemon = True
    deadline.start()
    start = time.time()
    rc = main()
    print(f"# dispatch-smoke finished in {time.time() - start:.1f}s",
          file=sys.stderr)
    raise SystemExit(rc)
