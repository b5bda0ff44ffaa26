"""Span-based tracing over virtual time.

A :class:`Span` is a named interval on a *track* (one per kernel, plus
synthetic tracks such as ``cluster`` or ``checkpoint``), carrying a
category, JSON-typed attributes, and an optional parent.  Spans nest:
each track keeps a stack of open spans, and a span begun while another
is open becomes its child, so a lottery draw recorded during a quantum
appears inside that quantum in the trace viewer.

All timestamps are **virtual milliseconds** from the discrete-event
engine -- never the host clock -- so two runs of the same seed produce
byte-identical traces (the determinism contract of
``docs/DETERMINISM.md`` extends to observability).  Span ids are
allocated in completion order from a process-local counter seeded at
zero, which the same contract makes reproducible.

The buffer is bounded with drop-oldest semantics, mirroring
:class:`~repro.kernel.trace.SchedulerTrace`: completed spans beyond
``max_spans`` evict the oldest completed span and increment
``dropped_spans`` (or raise in ``strict`` mode).  Open spans live on
the per-track stacks and are only buffered once finished.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Any, Deque, Dict, List, Optional, Tuple

from repro.errors import ReproError

__all__ = ["Span", "SpanTracer"]


@dataclass(slots=True)
class Span:
    """One traced interval (or instant, when ``end == start``)."""

    #: Monotonically increasing id, allocated at begin time.
    sid: int
    #: Parent span id (nesting), or None for a root span.
    parent: Optional[int]
    #: Track name (one per kernel/node, or a synthetic stream).
    track: str
    #: Event name, e.g. ``"quantum"`` or ``"lottery.draw"``.
    name: str
    #: Coarse grouping: kernel, scheduler, ipc, cluster, fault, checkpoint.
    category: str
    #: Start time, virtual ms.
    start: float
    #: End time, virtual ms; None while still open.
    end: Optional[float] = None
    #: JSON-typed attributes (strings, numbers, bools, None).
    attrs: Dict[str, Any] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        """Span length in virtual ms (0 for instants and open spans)."""
        if self.end is None:
            return 0.0
        return self.end - self.start

    @property
    def instant(self) -> bool:
        """True for zero-duration point events."""
        return self.end == self.start

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready representation (stable key set)."""
        return {
            "sid": self.sid,
            "parent": self.parent,
            "track": self.track,
            "name": self.name,
            "category": self.category,
            "start": self.start,
            "end": self.end,
            "attrs": dict(self.attrs),
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "Span":
        """Inverse of :meth:`to_dict` (exporter round-trips)."""
        return cls(
            sid=int(data["sid"]),
            parent=data["parent"],
            track=str(data["track"]),
            name=str(data["name"]),
            category=str(data["category"]),
            start=float(data["start"]),
            end=None if data["end"] is None else float(data["end"]),
            attrs=dict(data.get("attrs", {})),
        )


class SpanTracer:
    """Collects spans with per-track nesting and a bounded buffer.

    Parameters
    ----------
    max_spans:
        Completed-span buffer capacity; oldest spans are evicted beyond
        it (``dropped_spans`` counts the losses).
    strict:
        Raise :class:`~repro.errors.ReproError` instead of dropping.
    """

    def __init__(self, max_spans: int = 1_000_000, strict: bool = False) -> None:
        if max_spans <= 0:
            raise ReproError(f"max_spans must be positive: {max_spans}")
        self.max_spans = max_spans
        self.strict = strict
        self._spans: Deque[Span] = deque()
        self._stacks: Dict[str, List[Span]] = {}
        self._next_sid = 0
        #: Completed spans evicted by the bound.
        self.dropped_spans = 0

    # -- recording -----------------------------------------------------------

    def begin(self, track: str, name: str, category: str, start: float,
              attrs: Optional[Dict[str, Any]] = None) -> Span:
        """Open a span; it nests under the track's current open span."""
        stack = self._stacks.setdefault(track, [])
        parent = stack[-1].sid if stack else None
        span = Span(sid=self._alloc_sid(), parent=parent, track=track,
                    name=name, category=category, start=start,
                    attrs=dict(attrs or {}))
        stack.append(span)
        return span

    def end(self, span: Span, end: float,
            attrs: Optional[Dict[str, Any]] = None) -> Span:
        """Close an open span at virtual time ``end`` and buffer it."""
        if span.end is not None:
            raise ReproError(f"span {span.sid} ({span.name!r}) already ended")
        if end < span.start:
            raise ReproError(
                f"span {span.sid} ({span.name!r}) would end before it "
                f"started: start={span.start:g}ms, end={end:g}ms"
            )
        span.end = end
        if attrs:
            span.attrs.update(attrs)
        stack = self._stacks.get(span.track, [])
        if span in stack:
            stack.remove(span)
        self._buffer(span)
        return span

    def event(self, track: str, name: str, category: str, time: float,
              attrs: Optional[Dict[str, Any]] = None) -> Span:
        """Record an instant (zero-duration span) on a track."""
        stack = self._stacks.get(track, [])
        parent = stack[-1].sid if stack else None
        span = Span(sid=self._alloc_sid(), parent=parent, track=track,
                    name=name, category=category, start=time, end=time,
                    attrs=dict(attrs or {}))
        self._buffer(span)
        return span

    def complete(self, track: str, name: str, category: str, start: float,
                 end: float, attrs: Optional[Dict[str, Any]] = None) -> Span:
        """Record an already-finished interval (e.g. an RPC measured at
        reply time).  It does not nest under open spans -- intervals
        reported after the fact may straddle many of them."""
        if end < start:
            raise ReproError(
                f"complete span {name!r} has negative duration: "
                f"start={start:g}ms, end={end:g}ms"
            )
        span = Span(sid=self._alloc_sid(), parent=None, track=track,
                    name=name, category=category, start=start, end=end,
                    attrs=dict(attrs or {}))
        self._buffer(span)
        return span

    def finalize(self, time: float) -> int:
        """Close every open span at ``time`` (end of a run); returns the
        number closed."""
        closed = 0
        for track in sorted(self._stacks):
            stack = self._stacks[track]
            while stack:
                span = stack[-1]
                self.end(span, max(time, span.start), {"finalized": True})
                closed += 1
        return closed

    # -- views ---------------------------------------------------------------

    @property
    def spans(self) -> List[Span]:
        """Completed spans, oldest first (a fresh list)."""
        return list(self._spans)

    @property
    def completed(self) -> int:
        """Spans completed so far, evicted ones included (never falls)."""
        return len(self._spans) + self.dropped_spans

    def tail(self, count: int) -> List[Span]:
        """The last ``count`` completed spans, oldest first, without
        copying the buffer (deque ends index in O(1))."""
        spans = self._spans
        return [spans[index]
                for index in range(max(0, len(spans) - count), len(spans))]

    def open_spans(self, track: Optional[str] = None) -> List[Span]:
        """Currently open spans (innermost last), optionally per track."""
        if track is not None:
            return list(self._stacks.get(track, []))
        found: List[Span] = []
        for name in sorted(self._stacks):
            found.extend(self._stacks[name])
        return found

    def tracks(self) -> List[str]:
        """Track names in first-use order (stable across same-seed runs)."""
        seen: List[str] = []
        for span in self._spans:
            if span.track not in seen:
                seen.append(span.track)
        for track in self._stacks:
            if self._stacks[track] and track not in seen:
                seen.append(track)
        return seen

    def counts(self) -> Dict[Tuple[str, str], int]:
        """(category, name) -> completed span count."""
        out: Dict[Tuple[str, str], int] = {}
        for span in self._spans:
            key = (span.category, span.name)
            out[key] = out.get(key, 0) + 1
        return out

    def __len__(self) -> int:
        return len(self._spans)

    def snapshot_state(self) -> Dict[str, Any]:
        """Summary state tree (for checkpoint diffing; spans themselves
        are exported, not checkpointed)."""
        return {
            "max_spans": self.max_spans,
            "strict": self.strict,
            "next_sid": self._next_sid,
            "completed": len(self._spans),
            "dropped_spans": self.dropped_spans,
            "open": {track: len(stack)
                     for track, stack in sorted(self._stacks.items())
                     if stack},
        }

    # -- internals -----------------------------------------------------------

    def _alloc_sid(self) -> int:
        sid = self._next_sid
        self._next_sid += 1
        return sid

    def _buffer(self, span: Span) -> None:
        if len(self._spans) >= self.max_spans:
            if self.strict:
                raise ReproError(
                    f"span buffer overflow at {self.max_spans} spans "
                    f"(strict mode)"
                )
            self._spans.popleft()
            self.dropped_spans += 1
        self._spans.append(span)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<SpanTracer spans={len(self._spans)} "
                f"open={len(self.open_spans())} "
                f"dropped={self.dropped_spans}>")
