"""Frames of the dispatcher <-> worker pipe: envelope, opaque body, limits.

A frame is a length-prefixed JSON envelope, optionally followed by the
opaque body the envelope announces.  Everything that can be wrong with a
frame must surface as ``ProtocolError`` (the dispatcher turns that into
``WorkerDied``: retire the worker, retry elsewhere) — never as a hang, a
short body handed on as if it were whole, or an unbounded allocation.
"""

import io
import json
import struct

import pytest

from repro.service import protocol
from repro.service.protocol import ProtocolError, read_frame, write_frame


class _Dribble:
    """A reader that returns at most ``step`` bytes per read, like a pipe."""

    def __init__(self, data: bytes, step: int = 3):
        self._stream = io.BytesIO(data)
        self._step = step

    def read(self, count: int) -> bytes:
        return self._stream.read(min(count, self._step))


def _frame(payload, body=None) -> bytes:
    stream = io.BytesIO()
    write_frame(stream, payload, body)
    return stream.getvalue()


def test_envelope_only_frame_keeps_the_wire_format():
    payload = {"ok": True, "result": {"candidates": [1, 2]}, "epoch": 0}
    wire = _frame(payload)
    encoded = json.dumps(payload, separators=(",", ":")).encode("utf-8")
    assert wire == struct.pack(">I", len(encoded)) + encoded
    assert read_frame(io.BytesIO(wire)) == payload
    assert read_frame(_Dribble(wire)) == payload


def test_body_round_trip_is_opaque():
    # Not JSON, not UTF-8: the reader must hand it back untouched.
    body = b'{"candidates": [\xff\x00 not json'
    wire = _frame({"ok": True, "epoch": 3}, body)
    for reader in (io.BytesIO(wire), _Dribble(wire)):
        assert read_frame(reader) == {"ok": True, "epoch": 3, "body": body}


def test_empty_body_is_a_body():
    assert read_frame(io.BytesIO(_frame({"ok": True}, b""))) == {
        "ok": True, "body": b"",
    }


def test_frames_alternate_on_one_stream():
    wire = _frame({"n": 1}, b"abc") + _frame({"n": 2}) + _frame({"n": 3}, b"d")
    reader = _Dribble(wire)
    assert read_frame(reader) == {"n": 1, "body": b"abc"}
    assert read_frame(reader) == {"n": 2}
    assert read_frame(reader) == {"n": 3, "body": b"d"}
    assert read_frame(reader) is None  # clean EOF at a frame boundary


def test_truncated_body_is_a_protocol_error():
    wire = _frame({"ok": True, "epoch": 1}, b"0123456789")
    with pytest.raises(ProtocolError):
        read_frame(io.BytesIO(wire[:-4]))  # died mid-body
    with pytest.raises(ProtocolError):
        read_frame(io.BytesIO(wire[:-10]))  # died right after the envelope


def test_truncated_envelope_is_a_protocol_error():
    wire = _frame({"ok": True})
    with pytest.raises(ProtocolError):
        read_frame(io.BytesIO(wire[:-1]))
    with pytest.raises(ProtocolError):
        read_frame(io.BytesIO(wire[:2]))


def test_frame_bound_covers_envelope_and_body_together(monkeypatch):
    monkeypatch.setattr(protocol, "MAX_FRAME_BYTES", 64)
    with pytest.raises(ProtocolError):
        write_frame(io.BytesIO(), {"ok": True}, b"x" * 60)
    with pytest.raises(ProtocolError):
        write_frame(io.BytesIO(), {"pad": "x" * 64})

    envelope = json.dumps({"ok": True, "body_bytes": 60}).encode("utf-8")
    wire = struct.pack(">I", len(envelope)) + envelope + b"x" * 60
    with pytest.raises(ProtocolError):
        read_frame(io.BytesIO(wire))
    with pytest.raises(ProtocolError):
        read_frame(io.BytesIO(struct.pack(">I", 65)))

    small = _frame({"ok": True}, b"x" * 8)
    assert read_frame(io.BytesIO(small))["body"] == b"x" * 8


@pytest.mark.parametrize("announced", [-1, "12", 1.5, None, True])
def test_bad_body_length_is_a_protocol_error(announced):
    envelope = json.dumps({"ok": True, "body_bytes": announced}).encode("utf-8")
    wire = struct.pack(">I", len(envelope)) + envelope + b"x" * 16
    with pytest.raises(ProtocolError):
        read_frame(io.BytesIO(wire))


def test_non_object_envelope_is_a_protocol_error():
    for encoded in (b"[1,2]", b"not json", b"\xff\xfe"):
        with pytest.raises(ProtocolError):
            read_frame(io.BytesIO(struct.pack(">I", len(encoded)) + encoded))


# ----------------------------------------------------------------------
# The request value a frame carries
# ----------------------------------------------------------------------

def test_a_request_without_a_timeout_has_no_deadline():
    request = protocol.Request.new()
    assert request.deadline is None
    assert not request.expired()
    assert request.wait_until(None) is None
    assert request.wait_until(5.0) == 5.0
    assert request.to_frame() == {"id": request.id, "left": None}


def test_request_ids_are_distinct_and_share_the_process_prefix():
    ids = [protocol.Request.new().id for _ in range(1000)]
    assert len(set(ids)) == 1000
    assert len({request_id.split("-")[0] for request_id in ids}) == 1


def test_a_frame_carries_the_id_and_the_time_left():
    sent = protocol.Request.new(timeout=30.0)
    frame = json.loads(json.dumps(sent.to_frame()))
    received = protocol.Request.from_frame(frame)
    assert received.id == sent.id
    assert abs(received.deadline - sent.deadline) < 0.5
    assert received.wait_until(received.deadline + 1) == received.deadline
    late = protocol.Request.from_frame({"id": sent.id, "left": -0.1})
    assert late.expired()
    # A frame that names no request (a test's, a tool's) gets a fresh id.
    assert protocol.Request.from_frame({}).id not in ("", None, sent.id)


def test_a_batch_timeout_keeps_the_id_and_moves_the_deadline():
    request = protocol.Request.new(timeout=30.0, arrived=100.0)
    batch = request.with_timeout(0.5)
    assert (batch.id, batch.arrived, batch.deadline) == (request.id, 100.0, 100.5)


def test_a_passed_deadline_is_not_a_timeout_error():
    # The HTTP layer reads TimeoutError as a stalled client and closes the
    # connection without an answer; a 504 must be answered.
    assert not issubclass(protocol.DeadlineExceeded, TimeoutError)
