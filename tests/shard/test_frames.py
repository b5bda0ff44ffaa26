"""Checksummed pipe frames: round trips, damage detection."""

from __future__ import annotations

import hashlib
from multiprocessing.reduction import ForkingPickler

import pytest

from repro.errors import FrameCorruptError, ShardError
from repro.shard.frames import (
    FRAME_MAGIC,
    corrupt_frame,
    decode_frame,
    encode_frame,
)


def test_round_trip_is_identity():
    message = {"cmd": "epoch", "start": 0.0, "barrier": None,
               "horizon": 500.0, "epoch_ms": 500.0, "inclusive": False,
               "faults": []}
    assert decode_frame(encode_frame(message)) == message


def test_frames_are_deterministic():
    """A logged command reframes byte-identically when it is replayed,
    and its body is what ``Connection.send`` would have written."""
    logged = {"cmd": "epoch", "start": 500.0, "horizon": 1_000.0,
              "inclusive": False, "epoch_ms": 500.0,
              "barrier": [{"kind": "spawn", "target": 1, "src": 0,
                           "seq": 1, "args": {"n": 3}}]}
    frame = encode_frame(logged)
    assert encode_frame(logged) == frame
    assert frame.startswith(FRAME_MAGIC)
    assert frame.endswith(bytes(ForkingPickler.dumps(logged)))


def test_corrupt_frame_is_rejected_by_checksum():
    frame = corrupt_frame(encode_frame({"cmd": "collect"}))
    with pytest.raises(FrameCorruptError, match="checksum mismatch"):
        decode_frame(frame)


def test_frame_corrupt_error_is_a_shard_error():
    """The mp backend catches ShardError subtypes uniformly."""
    assert issubclass(FrameCorruptError, ShardError)


@pytest.mark.parametrize("frame", [
    None,
    42,
    "not bytes",
    {"v": 1, "body": "{}"},
    b"",
    b"garbage without framing",
    b"XX9\n" + b"\x00" * 40,
    FRAME_MAGIC + b"short",
])
def test_malformed_frames_are_rejected(frame):
    with pytest.raises(FrameCorruptError):
        decode_frame(frame)


def _handmade(body: bytes) -> bytes:
    return FRAME_MAGIC + hashlib.sha256(body).digest() + body


def test_valid_checksum_over_non_json_body_is_still_corrupt():
    """Neither the old JSON body nor any other bytes that do not
    unpickle pass for a message, however valid their digest."""
    for body in (b"not json at all", b'{"cmd": "stop"}',
                 bytes(ForkingPickler.dumps({"cmd": "stop"}))[:-3]):
        with pytest.raises(FrameCorruptError, match="does not unpickle"):
            decode_frame(_handmade(body))


@pytest.mark.parametrize("message", [[1, 2, 3], "stop", None, 7])
def test_non_dict_body_is_rejected(message):
    with pytest.raises(FrameCorruptError, match="dict"):
        decode_frame(_handmade(bytes(ForkingPickler.dumps(message))))


def test_a_damaged_body_is_never_unpickled(monkeypatch):
    """The digest is checked first: a corrupted frame fails on its
    checksum without its body reaching the unpickler."""
    def refuse(*args):
        raise AssertionError("a damaged body was unpickled")

    frame = corrupt_frame(encode_frame({"cmd": "collect"}))
    monkeypatch.setattr(ForkingPickler, "loads", refuse)
    with pytest.raises(FrameCorruptError, match="checksum mismatch"):
        decode_frame(frame)


def test_memoryview_frames_decode():
    """recv_bytes may surface buffers; any bytes-like frame decodes."""
    frame = encode_frame({"ok": True})
    assert decode_frame(memoryview(frame)) == {"ok": True}
