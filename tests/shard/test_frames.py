"""Checksummed pipe frames: round trips, damage detection."""

from __future__ import annotations

import hashlib
import json

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
    """Same message, same frame bytes -- replayed commands reframe
    byte-identically (key order must not leak into the body)."""
    left = encode_frame({"b": 2, "a": 1})
    right = encode_frame({"a": 1, "b": 2})
    assert left == right
    assert left.startswith(FRAME_MAGIC)


def test_corrupt_frame_is_rejected_by_checksum():
    frame = corrupt_frame(encode_frame({"cmd": "collect"}))
    with pytest.raises(FrameCorruptError, match="checksum mismatch"):
        decode_frame(frame)


def test_frame_corrupt_error_is_a_shard_error():
    """The supervisor catches ShardError subtypes uniformly."""
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
    with pytest.raises(FrameCorruptError, match="not JSON"):
        decode_frame(_handmade(b"not json at all"))


def test_non_dict_json_body_is_rejected():
    with pytest.raises(FrameCorruptError, match="dict"):
        decode_frame(_handmade(json.dumps([1, 2, 3]).encode()))


def test_memoryview_frames_decode():
    """recv_bytes may surface buffers; any bytes-like frame decodes."""
    frame = encode_frame({"ok": True})
    assert decode_frame(memoryview(frame)) == {"ok": True}
