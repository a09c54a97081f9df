"""Length-prefixed JSON frames: the dispatcher <-> worker wire format.

One frame is a 4-byte big-endian length followed by that many bytes of
UTF-8 JSON encoding a single object, the **envelope**.  An envelope that
carries ``"body_bytes": n`` is followed by ``n`` opaque bytes, the
**body**: a worker encodes an HTTP response body at the source and the
dispatcher hands it to the socket as it came off the pipe, checking the
envelope (``ok`` / ``epoch`` / ``kind`` / ``error``) and never parsing the
body.  The format is deliberately dumb: no pickles (a worker must never
be able to make the dispatcher execute code, nor vice versa), no
streaming bodies, no multiplexing — each worker connection carries
strictly alternating request/response frames, so a frame boundary error
can only mean a dead or corrupted peer, and the dispatcher's answer to
both is the same (retire the worker, retry elsewhere).

``read_frame`` accepts any object with ``read(n) -> bytes`` that may
return *up to* ``n`` bytes (a raw pipe read), so the dispatcher can wrap
a file descriptor with deadline-aware reads while the worker uses plain
buffered stdin.

A ``search`` or ``execute`` envelope also names the :class:`Request` it
serves: ``"id"`` and ``"left"``, the seconds to its deadline (``null``
for none).  The worker rebuilds the value from them and echoes the id,
so a response that answers another request shows as what it is: a
stream out of step.
"""

from __future__ import annotations

import itertools
import json
import os
import struct
from typing import Dict, NamedTuple, Optional

from repro.util import now

__all__ = [
    "DeadlineExceeded",
    "MAX_FRAME_BYTES",
    "ProtocolError",
    "Request",
    "read_frame",
    "write_frame",
]

#: Upper bound on one frame, envelope and body together.  A result is the
#: top-k query candidates with their renderings — 31 KB at k=10 on DBLP,
#: and it grows with k — so anything near this bound is a corrupted
#: stream, not a payload.
MAX_FRAME_BYTES = 64 * 1024 * 1024

_LEN = struct.Struct(">I")


class ProtocolError(RuntimeError):
    """The peer sent bytes that are not a well-formed frame."""


class DeadlineExceeded(RuntimeError):
    """A request reached its deadline before it could run (HTTP 504).

    Not a ``TimeoutError``: the HTTP layer reads that one as a client
    that stalled, and closes the connection without an answer."""


# Ids are unique across the processes of one server and its restarts: a
# random per-process prefix, then a counter (`next` on it is atomic).
_ID_PREFIX = os.urandom(4).hex()
_ids = itertools.count(1)


def _next_id() -> str:
    return f"{_ID_PREFIX}-{next(_ids)}"


class Request(NamedTuple):
    """One request from the front end to the worker: its ``id``, when it
    ``arrived`` and its ``deadline`` (:func:`repro.util.now` seconds;
    ``None`` for no deadline).  A value, not a handle: a retry sends the
    same one again."""

    id: str
    arrived: float
    deadline: Optional[float]

    @classmethod
    def new(
        cls, timeout: Optional[float] = None, arrived: Optional[float] = None
    ) -> "Request":
        """A fresh id; the deadline ``timeout`` seconds after arrival (now,
        unless given)."""
        if arrived is None:
            arrived = now()
        deadline = None if timeout is None else arrived + timeout
        return cls(_next_id(), arrived, deadline)

    def with_timeout(self, timeout: float) -> "Request":
        """The same request with its deadline ``timeout`` seconds after
        arrival."""
        return self._replace(deadline=self.arrived + timeout)

    def wait_until(self, limit: Optional[float]) -> Optional[float]:
        """When a wait on this request's behalf gives up: at ``limit`` (a
        queue bound) or at the deadline, whichever comes first; ``None``
        for never."""
        if limit is None or (self.deadline is not None and self.deadline < limit):
            return self.deadline
        return limit

    def expired(self) -> bool:
        return self.deadline is not None and now() >= self.deadline

    def to_frame(self) -> Dict[str, object]:
        """The envelope fields that carry this request to a worker."""
        left = None if self.deadline is None else self.deadline - now()
        return {"id": self.id, "left": left}

    @classmethod
    def from_frame(cls, envelope: Dict[str, object]) -> "Request":
        """The request an envelope carries, as of its receipt; a fresh id
        when it names none."""
        request = cls.new(envelope.get("left"))
        return request._replace(id=envelope["id"]) if envelope.get("id") else request


def write_frame(
    stream, payload: Dict[str, object], body: Optional[bytes] = None
) -> None:
    """Serialize one frame — the envelope, then ``body`` as it is — and
    flush it."""
    if body is None:
        body = b""
    else:
        payload = dict(payload, body_bytes=len(body))
    envelope = json.dumps(payload, separators=(",", ":")).encode("utf-8")
    size = len(envelope) + len(body)
    if size > MAX_FRAME_BYTES:
        raise ProtocolError(f"frame of {size} bytes exceeds {MAX_FRAME_BYTES}")
    stream.write(_LEN.pack(len(envelope)) + envelope + body)
    stream.flush()


def read_frame(reader) -> Optional[Dict[str, object]]:
    """Read one frame; ``None`` on clean EOF at a frame boundary.

    Returns the envelope; the bytes of an announced body are under its
    ``"body"`` key.  EOF *inside* a frame, an oversized length, or a
    non-object envelope raise :class:`ProtocolError` — all three mean the
    peer died mid-write or the stream is corrupt.
    """
    header = _read_exact(reader, _LEN.size)
    if header is None:
        return None
    (length,) = _LEN.unpack(header)
    if length > MAX_FRAME_BYTES:
        raise ProtocolError(f"frame length {length} exceeds {MAX_FRAME_BYTES}")
    envelope = _read_exact(reader, length)
    if envelope is None:
        raise ProtocolError("stream ended inside a frame envelope")
    try:
        payload = json.loads(envelope.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ProtocolError(f"undecodable frame: {exc}") from exc
    if not isinstance(payload, dict):
        raise ProtocolError("frame payload must be a JSON object")
    if "body_bytes" in payload:
        announced = payload.pop("body_bytes")
        if type(announced) is not int or announced < 0:
            raise ProtocolError(f"bad body length {announced!r}")
        if length + announced > MAX_FRAME_BYTES:
            raise ProtocolError(
                f"frame of {length + announced} bytes exceeds {MAX_FRAME_BYTES}"
            )
        body = _read_exact(reader, announced)
        if body is None:
            raise ProtocolError("stream ended before an announced frame body")
        payload["body"] = body
    return payload


def _read_exact(reader, count: int) -> Optional[bytes]:
    """Read exactly ``count`` bytes; ``None`` on EOF before the first byte."""
    if count == 0:
        return b""
    chunks = []
    remaining = count
    while remaining:
        chunk = reader.read(remaining)
        if not chunk:
            if not chunks:
                return None
            raise ProtocolError(
                f"stream ended {remaining} bytes short of a {count}-byte read"
            )
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)
