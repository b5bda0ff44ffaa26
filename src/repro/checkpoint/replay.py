"""Bit-exact replay: record dispatch streams, diff them, name the split.

A :class:`ReplayRecorder` plugs into the kernel's recorder seam and
logs every dispatch as a ``(time, thread, draw)`` triple, where *draw*
is the dispatching policy's Park-Miller stream position at the moment
of the win.  Two runs of the same seeded system must produce identical
streams; :func:`diff_streams` compares them event-by-event and reports
the **first** mismatched triple -- the earliest scheduling decision
where the universes split, which is where debugging starts.

This is the payoff of checkpoint/restore: record a reference run, crash
it anywhere, restore from the last checkpoint, keep recording, and
assert the continued stream is bit-identical to the uninterrupted one
(``tests/checkpoint/test_replay.py``).  The stream file format mirrors
the checkpoint format (versioned, checksummed, atomically written).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, TYPE_CHECKING

from repro.checkpoint.statetree import (read_json_file, tree_checksum,
                                        write_json_file)
from repro.errors import CheckpointError

if TYPE_CHECKING:  # pragma: no cover
    from repro.kernel.thread import Thread

__all__ = ["ReplayRecorder", "Divergence", "diff_streams",
           "format_divergence", "write_stream_file", "read_stream_file"]

#: Bump on any incompatible change to the stream-entry shape.
STREAM_VERSION = 1

FORMAT_NAME = "repro-replay-stream"


#: (field, what it must hold, test, required) of a stream entry, as
#: JSON loads it; only a sharded engine's entries carry ``core``.
_ENTRY_FIELDS = (
    ("time", "a finite number",
     lambda v: type(v) in (int, float) and math.isfinite(v), True),
    ("tid", "an int", lambda v: type(v) is int, True),
    ("name", "a str", lambda v: type(v) is str, True),
    ("draw", "an int or null", lambda v: v is None or type(v) is int, True),
    ("core", "an int", lambda v: type(v) is int, False),
)


class ReplayRecorder:
    """Kernel recorder logging the dispatch stream for replay diffing.

    Implements the full recorder protocol so it can sit in the single
    recorder slot of a kernel; only dispatches enter the
    stream (they are the decisions), but block/wake/exit transitions
    are counted so two runs can also be compared coarsely.
    """

    #: Recorder events the kernel need not call.
    ignored_events = ("on_cpu",)

    def __init__(self) -> None:
        self.entries: List[Dict[str, Any]] = []
        self.blocks = 0
        self.wakes = 0
        self.exits = 0

    # -- kernel recorder interface ------------------------------------------

    def on_dispatch(self, thread: "Thread", time: float) -> None:
        prng = getattr(thread.kernel.policy, "prng", None)
        self.entries.append({
            "time": time,
            "tid": thread.tid,
            "name": thread.name,
            # The stream position *after* the winning draw: equal
            # positions mean the same lottery history, bit for bit.
            "draw": None if prng is None else prng.state,
        })

    def on_cpu(self, thread: "Thread", start: float, duration: float) -> None:
        pass

    def on_block(self, thread: "Thread", time: float) -> None:
        self.blocks += 1

    def on_wake(self, thread: "Thread", time: float) -> None:
        self.wakes += 1

    def on_exit(self, thread: "Thread", time: float) -> None:
        self.exits += 1

    # -- views ---------------------------------------------------------------

    def since(self, time_ms: float) -> List[Dict[str, Any]]:
        """Entries at or after ``time_ms`` (tail comparison after restore)."""
        return [e for e in self.entries if e["time"] >= time_ms]

    def snapshot_state(self) -> dict:
        """Typed state tree for checkpointing (see ``repro.checkpoint``)."""
        return {
            "entries": len(self.entries),
            "blocks": self.blocks,
            "wakes": self.wakes,
            "exits": self.exits,
            "checksum": tree_checksum(self.entries),
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<ReplayRecorder entries={len(self.entries)}>"


# -- stream comparison --------------------------------------------------------


@dataclass
class Divergence:
    """The first point where two dispatch streams disagree."""

    index: int
    field: str  # "time" | "tid" | "name" | "draw" | "length"
    expected: Any
    actual: Any
    expected_entry: Optional[Dict[str, Any]] = None
    actual_entry: Optional[Dict[str, Any]] = None


def diff_streams(expected: List[Dict[str, Any]],
                 actual: List[Dict[str, Any]]) -> Optional[Divergence]:
    """First mismatched (time, thread, draw) triple, or None if identical.

    Fields are checked in (time, tid, name, draw) order so the report
    names the most meaningful difference at the divergent event; a
    stream that is a strict prefix of the other diverges at its end
    with ``field="length"``.
    """
    for index, (left, right) in enumerate(zip(expected, actual)):
        for field in ("time", "tid", "name", "draw"):
            if left.get(field) != right.get(field):
                return Divergence(index, field, left.get(field),
                                  right.get(field), left, right)
    if len(expected) != len(actual):
        index = min(len(expected), len(actual))
        return Divergence(
            index, "length", len(expected), len(actual),
            expected[index] if index < len(expected) else None,
            actual[index] if index < len(actual) else None,
        )
    return None


def format_divergence(divergence: Optional[Divergence]) -> str:
    """The divergence-report format (see ``docs/CHECKPOINT.md``)."""
    if divergence is None:
        return "streams identical: zero divergence"
    lines = [
        f"divergence at event #{divergence.index} "
        f"(field: {divergence.field})",
        f"  expected: {divergence.expected!r}",
        f"  actual:   {divergence.actual!r}",
    ]
    if divergence.expected_entry is not None:
        lines.append(f"  expected entry: {divergence.expected_entry}")
    if divergence.actual_entry is not None:
        lines.append(f"  actual entry:   {divergence.actual_entry}")
    return "\n".join(lines)


# -- stream files -------------------------------------------------------------


def write_stream_file(path: str, entries: List[Dict[str, Any]]) -> None:
    """Atomically write a recorded dispatch stream (checksummed)."""
    write_json_file(path, {
        "format": FORMAT_NAME,
        "stream_version": STREAM_VERSION,
        "entries": entries,
        "checksum": tree_checksum(entries),
    }, "stream")


def read_stream_file(path: str) -> List[Dict[str, Any]]:
    """Load and validate a stream file; corrupted streams are rejected."""
    payload = read_json_file(path, "stream")
    if not isinstance(payload, dict) or payload.get("format") != FORMAT_NAME:
        raise CheckpointError(f"{path!r} is not a replay stream file")
    if payload.get("stream_version") != STREAM_VERSION:
        raise CheckpointError(
            f"stream {path!r} has version {payload.get('stream_version')!r};"
            f" this build reads version {STREAM_VERSION} only"
        )
    entries = payload.get("entries")
    if not isinstance(entries, list):
        raise CheckpointError(f"stream {path!r} has no entry list")
    if payload.get("checksum") != tree_checksum(entries):
        raise CheckpointError(
            f"stream {path!r} failed its integrity check (corrupted file;"
            f" refusing to load)"
        )
    # A valid checksum vouches for the bytes, not for who wrote them.
    for index, entry in enumerate(entries):
        if not isinstance(entry, dict):
            raise CheckpointError(
                f"stream {path!r} entry {index} is not an object: {entry!r}")
        for field, want, test, required in _ENTRY_FIELDS:
            if field not in entry and not required:
                continue
            if field not in entry or not test(entry[field]):
                raise CheckpointError(
                    f"stream {path!r} entry {index} field {field!r} must "
                    f"be {want}: {entry.get(field, '<absent>')!r}")
    return entries
