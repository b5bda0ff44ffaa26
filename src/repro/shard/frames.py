"""Checksummed pipe frames: the one codec of the mp backend.

The mp backend assumes pipes can *lie* -- a worker may be killed
mid-write, wedge forever, or hand back bytes that were damaged in
flight -- so every message crossing a worker pipe, either way, travels
as a **frame**: raw bytes

``b"RF1\\n" + sha256(body) + body``

where the body is exactly what ``Connection.send`` would write for the
message (``multiprocessing``'s ``ForkingPickler.dumps``) and the
32-byte digest is sha256 over those bytes.  The receiver recomputes
the digest *before* it unpickles anything, so a damaged body is never
unpickled; a mismatch -- or a frame not shaped like a frame, or a body
that does not unpickle to a dict -- raises
:class:`~repro.errors.FrameCorruptError`, which the backend treats
exactly like a worker crash: respawn and replay from the last
committed barrier.

Frames go through ``send_bytes``/``recv_bytes``, so the checksum costs
one sha256 pass over bytes the pickle codec produces anyway.  What the
whole supervision layer costs an undisturbed run is measured in
``docs/SHARDING.md`` section 6, Cost.

Framing doubles as a protocol-level determinism check: a logged
command is the same object when it is replayed, so it reframes
byte-identically.
"""

from __future__ import annotations

import hashlib
from multiprocessing.reduction import ForkingPickler
from typing import Any, Dict

from repro.errors import FrameCorruptError

__all__ = ["FRAME_MAGIC", "FRAME_VERSION", "corrupt_frame", "decode_frame",
           "encode_frame", "recv_frame", "send_frame"]

FRAME_VERSION = 1

#: Leads every frame; bumping :data:`FRAME_VERSION` changes it, so a
#: version skew between parent and worker reads as corruption.
FRAME_MAGIC = b"RF%d\n" % FRAME_VERSION

_DIGEST_SIZE = hashlib.sha256().digest_size
_HEADER_SIZE = len(FRAME_MAGIC) + _DIGEST_SIZE


def encode_frame(message: Dict[str, Any]) -> bytes:
    """Frame ``message`` as checksummed bytes."""
    body = ForkingPickler.dumps(message)
    return FRAME_MAGIC + hashlib.sha256(body).digest() + body


def decode_frame(frame: Any) -> Dict[str, Any]:
    """Validate a frame and return its message; raise on any damage."""
    if not isinstance(frame, (bytes, bytearray, memoryview)):
        raise FrameCorruptError(
            f"pipe frame is not bytes: {type(frame).__name__}")
    frame = bytes(frame)
    if len(frame) < _HEADER_SIZE or not frame.startswith(FRAME_MAGIC):
        raise FrameCorruptError("pipe frame has no recognizable framing")
    digest = frame[len(FRAME_MAGIC):_HEADER_SIZE]
    body = frame[_HEADER_SIZE:]
    actual = hashlib.sha256(body).digest()
    if actual != digest:
        raise FrameCorruptError(
            f"pipe frame checksum mismatch: header {digest.hex()[:16]}... "
            f"body {actual.hex()[:16]}...")
    try:
        message = ForkingPickler.loads(body)
    except Exception as exc:
        raise FrameCorruptError(
            f"pipe frame body does not unpickle despite a valid "
            f"checksum: {type(exc).__name__}: {exc}") from exc
    if not isinstance(message, dict):
        raise FrameCorruptError(
            f"pipe frame body must decode to a dict, got "
            f"{type(message).__name__}")
    return message


def corrupt_frame(frame: bytes) -> bytes:
    """Deterministically damage a frame's body (checksum kept).

    Used by the ``corrupt`` host fault: the receiver's digest check
    must reject the result.  Flipping one bit of the last body byte
    keeps the frame well-shaped, so only the checksum layer can catch
    it.
    """
    damaged = bytearray(frame)
    damaged[-1] ^= 0x01
    return bytes(damaged)


def send_frame(conn: Any, message: Dict[str, Any]) -> None:
    """Encode and send one framed message over a Connection."""
    conn.send_bytes(encode_frame(message))


def recv_frame(conn: Any) -> Dict[str, Any]:
    """Receive and validate one framed message (blocking)."""
    return decode_frame(conn.recv_bytes())
