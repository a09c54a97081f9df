"""The ``repro serve --workers N`` worker process.

One worker serves ``search`` / ``execute`` requests over stdin/stdout
frames (:mod:`repro.service.protocol`) against its *own* read-only load
of the shared bundle::

    KeywordSearchEngine.load(bundle, attach_wal=False)

Lazy loading means the sections a worker reads in place are ``mmap``
views of the bundle — the CSR substrate, the sorted runs, postings and
term table — and every worker maps the *same* file, so the OS page cache
backs all of them with one physical copy.  The rest of a worker is its
own: the interpreter, its imports, and what it decodes (the summary
graph, the terms and postings its requests touched).  That is why this
module imports the engine, the frame protocol and the byte encoders
(:mod:`repro.service.encoding`) and nothing else — no HTTP layer, no
``subprocess`` — and imports all of it up front, so that the ready frame
means "every import is paid" and no request pays one.  The point of the
multiprocess tier stands: N CPU-bound pure-Python searches stop sharing
one GIL, at 18 MB Pss per worker on DBLP-8000
(``docs/architecture.md`` has the breakdown).

**Epoch propagation.**  The dispatcher owns the single WAL-attached
writer engine; workers are followers.  Every request carries the
dispatcher's committed watermark (``min_epoch``), and a worker whose
engine is behind replays the committed WAL tail through a
:class:`~repro.storage.wal.WalCursor` *before* executing the request —
so a response is always computed wholly at one epoch ``>= min_epoch``,
never on a half-applied state (replay goes through the same atomic
``apply_batch`` epochs as the original updates).  When the tail cannot
reach the watermark — the log was compacted away, truncated, or the
bundle was rebuilt — the worker falls back to a full bundle reload, and
only reports itself stale if even the reload is behind.

The worker is deliberately single-threaded: requests on its pipe are
strictly serialized, which is what makes "sync, then serve" a complete
consistency argument.  Parallelism lives in the *number* of workers, not
inside one.

Frame protocol (all ops reply with one frame, which echoes the
request's ``id``; ``ok: false`` carries ``kind`` = ``bad_request`` |
``stale`` | ``deadline`` | ``internal`` and ``error``).  ``search`` and
``execute`` rebuild the :class:`~repro.service.protocol.Request` from
``id`` and ``left`` and refuse it (``deadline``) once it is past its
deadline; they encode the HTTP response body here, at the source, and
send it as the frame's opaque body: the dispatcher forwards those bytes
to the socket without parsing them.

==========  ===========================================================
op          behavior
==========  ===========================================================
search      sync to ``min_epoch``; run the pipeline; reply
            ``{"epoch": E}`` + body ``encode_result(result)``
execute     sync; search + evaluate the rank-th candidate; reply
            ``{"epoch": E}`` + body ``encode_execution(candidate,
            answers, timings)`` (no body when the rank is out of range)
sync        replay to ``min_epoch``; reply ``{"epoch": E}``
stats       counters, epoch, pid, RSS (VmRSS/VmHWM/Pss), cache rates
ping        liveness probe: ``{"pid": ..., "epoch": E}``
sleep       hold the worker busy ``seconds`` (supervision tests and
            drain diagnostics only — it occupies the pipe exactly like
            a long search)
shutdown    reply, then exit the loop cleanly
==========  ===========================================================

On startup the worker proactively sends one ``ready`` frame carrying its
pid and epoch; the dispatcher treats a connection without it as a failed
spawn.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from typing import Dict, Optional

from repro.core.engine import KeywordSearchEngine
from repro.service.encoding import encode_execution, encode_result
from repro.service.protocol import (
    DeadlineExceeded,
    ProtocolError,
    Request,
    read_frame,
    write_frame,
)
from repro.storage.errors import WalError
from repro.storage.wal import WalCursor

__all__ = ["WorkerRuntime", "main", "process_memory"]


def process_memory() -> Dict[str, int]:
    """Best-effort memory facts for this process, in KiB.

    ``vmrss``/``vmhwm`` come from ``/proc/self/status``.  ``pss`` (the
    *proportional* set size from ``/proc/self/smaps_rollup``) is the
    honest number for the shared-bundle claim: mmap-ed bundle pages are
    resident in every worker's VmRSS but counted once (split N ways) in
    PSS, so the sum of worker PSS staying near one worker's VmRSS is the
    proof that the page cache is shared.  Missing files (non-Linux)
    yield zeros.
    """
    out = {"vmrss_kb": 0, "vmhwm_kb": 0, "pss_kb": 0}
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmRSS:"):
                    out["vmrss_kb"] = int(line.split()[1])
                elif line.startswith("VmHWM:"):
                    out["vmhwm_kb"] = int(line.split()[1])
    except OSError:
        pass
    try:
        with open("/proc/self/smaps_rollup") as fh:
            for line in fh:
                if line.startswith("Pss:"):
                    out["pss_kb"] = int(line.split()[1])
                    break
    except OSError:
        pass
    return out


class WorkerRuntime:
    """The request loop around one follower engine."""

    def __init__(self, bundle: str, overrides: Optional[Dict[str, object]] = None):
        self.bundle = os.fspath(bundle)
        self.overrides = dict(overrides or {})
        self.engine = KeywordSearchEngine.load(
            self.bundle, attach_wal=False, **self.overrides
        )
        self.cursor = WalCursor(self._wal_path())
        self.completed = 0
        self.errors = 0
        self.epochs_replayed = 0
        self.reloads = 0

    def _wal_path(self) -> str:
        return self.bundle + ".wal"

    # -- epoch propagation --------------------------------------------

    @property
    def epoch(self) -> int:
        return self.engine.index_manager.epoch

    def sync_to(self, min_epoch: Optional[int]) -> None:
        """Catch up to the dispatcher's committed watermark.

        WAL-tail replay first; a gap, damage, or an unreachable
        watermark falls back to reloading the bundle (it may have been
        compacted/rebuilt past the log).  Raises ``StaleWorkerError``
        only when even a fresh load is behind the watermark — at that
        point the artifact on disk genuinely lacks committed history and
        serving from it would be wrong.
        """
        if min_epoch is None or self.epoch >= min_epoch:
            return
        try:
            self.epochs_replayed += self.cursor.replay_into(self.engine)
        except WalError:
            self._reload()
        if self.epoch < min_epoch:
            self._reload()
        if self.epoch < min_epoch:
            raise StaleWorkerError(
                f"worker at epoch {self.epoch} cannot reach watermark "
                f"{min_epoch}: bundle and WAL lack the committed history"
            )

    def _reload(self) -> None:
        self.engine = KeywordSearchEngine.load(
            self.bundle, attach_wal=False, **self.overrides
        )
        self.cursor = WalCursor(self._wal_path())
        self.reloads += 1

    # -- request handling ---------------------------------------------

    def handle(self, request: Dict[str, object]) -> Dict[str, object]:
        """The response envelope; an encoded body rides under ``"body"``,
        as :func:`~repro.service.protocol.read_frame` hands it back."""
        op = request.get("op")
        try:
            if op == "search":
                return self._op_search(request)
            if op == "execute":
                return self._op_execute(request)
            if op == "sync":
                self.sync_to(request.get("min_epoch"))
                return {"ok": True, "epoch": self.epoch}
            if op == "stats":
                return self._op_stats()
            if op == "ping":
                return {"ok": True, "pid": os.getpid(), "epoch": self.epoch}
            if op == "sleep":
                time.sleep(float(request.get("seconds", 0.0)))
                return {"ok": True, "pid": os.getpid()}
            if op == "shutdown":
                return {"ok": True, "op": "shutdown"}
            return {
                "ok": False,
                "kind": "bad_request",
                "error": f"unknown op {op!r}",
            }
        except StaleWorkerError as exc:
            self.errors += 1
            return {"ok": False, "kind": "stale", "error": str(exc)}
        except DeadlineExceeded as exc:
            return {"ok": False, "kind": "deadline", "error": str(exc)}
        except (ValueError, KeyError, TypeError) as exc:
            self.errors += 1
            return {"ok": False, "kind": "bad_request", "error": str(exc)}
        except Exception as exc:  # pragma: no cover - defensive
            self.errors += 1
            return {
                "ok": False,
                "kind": "internal",
                "error": f"{type(exc).__name__}: {exc}",
            }

    def _begin(self, request: Dict[str, object]) -> None:
        """Sync for a ``search`` / ``execute``, then refuse it if it is
        past its deadline by now."""
        served = Request.from_frame(request)
        self.sync_to(request.get("min_epoch"))
        if served.expired():
            raise DeadlineExceeded(
                f"request {served.id} reached its deadline before its search"
            )

    def _op_search(self, request: Dict[str, object]) -> Dict[str, object]:
        self._begin(request)
        result = self.engine.search(
            request["q"], k=request.get("k"), dmax=request.get("dmax")
        )
        self.completed += 1
        return {"ok": True, "epoch": self.epoch, "body": encode_result(result)}

    def _op_execute(self, request: Dict[str, object]) -> Dict[str, object]:
        self._begin(request)
        candidate, answers, timings = self.engine.execute_ranked(
            request["q"],
            rank=int(request.get("rank", 1)),
            limit=request.get("limit", 10),
        )
        if candidate is None:
            return {"ok": True, "epoch": self.epoch}
        self.completed += 1
        return {
            "ok": True,
            "epoch": self.epoch,
            "body": encode_execution(candidate, answers, timings),
        }

    def _op_stats(self) -> Dict[str, object]:
        payload = {
            "ok": True,
            "pid": os.getpid(),
            "epoch": self.epoch,
            "completed": self.completed,
            "errors": self.errors,
            "epochs_replayed": self.epochs_replayed,
            "reloads": self.reloads,
            "load_seconds": self.engine.artifact["load_seconds"],
            "index_tier": self.engine.index_tier,
            "caches": self.engine.cache_stats(),
            "exploration": self.engine.exploration_stats(),
        }
        payload.update(process_memory())
        return payload

    # -- the loop ------------------------------------------------------

    def serve(self, in_stream, out_stream) -> int:
        write_frame(
            out_stream,
            {
                "ok": True,
                "op": "ready",
                "pid": os.getpid(),
                "epoch": self.epoch,
            },
        )
        while True:
            try:
                request = read_frame(in_stream)
            except ProtocolError:
                return 1  # dispatcher died mid-frame
            if request is None:
                return 0  # dispatcher hung up: clean exit
            response = self.handle(request)
            if "id" in request:
                response["id"] = request["id"]
            body = response.pop("body", None)
            try:
                write_frame(out_stream, response, body)
            except (BrokenPipeError, OSError):
                return 1
            if request.get("op") == "shutdown":
                return 0


class StaleWorkerError(RuntimeError):
    """The on-disk artifact cannot reach the dispatcher's watermark."""


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-serve-worker",
        description="Internal: one `repro serve --workers N` worker process.",
    )
    parser.add_argument("bundle", help="path to the shared .reprobundle")
    parser.add_argument(
        "--overrides",
        default="{}",
        help="JSON object of KeywordSearchEngine.load overrides",
    )
    args = parser.parse_args(argv)
    overrides = json.loads(args.overrides)

    # Frames own fd 1; anything else that prints (warnings, stray debug
    # output from deep inside a search) must not corrupt the stream, so
    # the real stdout is duplicated for frames and fd 1 is pointed at
    # stderr before the engine loads.
    out_stream = os.fdopen(os.dup(sys.stdout.fileno()), "wb")
    os.dup2(sys.stderr.fileno(), sys.stdout.fileno())
    sys.stdout = sys.stderr

    try:
        runtime = WorkerRuntime(args.bundle, overrides)
    except Exception as exc:
        # A spawn failure must be diagnosable from the dispatcher: send
        # the refusal as the ready frame, then exit nonzero.
        try:
            write_frame(
                out_stream,
                {"ok": False, "op": "ready", "error": f"{type(exc).__name__}: {exc}"},
            )
        except OSError:
            pass
        print(f"repro-serve-worker: {exc}", file=sys.stderr)
        return 1
    return runtime.serve(sys.stdin.buffer, out_stream)


if __name__ == "__main__":  # pragma: no cover - subprocess entry point
    raise SystemExit(main())
