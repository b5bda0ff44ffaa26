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
allocated at *begin* time from a per-tracer counter seeded at zero
(an instant or an after-the-fact interval takes its id when recorded),
which the same contract makes reproducible; the buffer itself is in
*completion* order, so a parent follows its children there.

Retention
---------
The buffer holds no :class:`Span` objects: one exists while its span is
open (on the track's stack), as the return value of a recording call,
and when a reader asks (``spans``, ``tail``, iteration -- each
materialises fresh ones).  A completed span is kept as a *row* --
``sid, parent, start, end`` and its attr values -- in the *block* of
its shape, ``(track, name, category, attr keys)``, which is stored once
per block; one more sequence per chunk says which block each
completion went to, so completion order is kept exactly.  The chunk
being filled keeps its rows as plain objects; every :data:`CHUNK_SPANS`
completions it is **sealed**: each block becomes one column per row
position, packed in bulk.  A column's container follows the *exact*
types of its values: all ``float`` -> ``array('d')``, all ``int``
within 64 bits -> ``array('q')``, all ``None`` -> nothing, and anything
else (``bool``, ``str``, ints mixed with floats, ints beyond 64 bits,
nested lists or dicts) -> the original objects.  What a reader gets
back is therefore equal to and of the same type as what was recorded
(``0`` never returns as ``0.0``, ``True`` never as ``1``, ``-0.0``
keeps its sign), and every export is byte-identical to one taken from a
buffer of ``Span`` objects -- at about a sixth of the memory (~60 B a
span against ~400 on the hub's usual mix).

The buffer is bounded with drop-oldest semantics: completed spans beyond
``max_spans`` evict the oldest completed span and increment
``dropped_spans`` (or raise in ``strict`` mode).  Eviction moves an
offset into the oldest chunk, which is let go when the offset passes
its end, so up to ``CHUNK_SPANS - 1`` evicted rows may still occupy
memory -- never a reader's view.  Open spans live on the per-track
stacks and are only buffered once finished.
"""

from __future__ import annotations

import struct
from array import array
from collections import Counter, deque
from dataclasses import dataclass, field
from itertools import chain, islice, repeat
from typing import Any, Deque, Dict, Iterator, List, Optional, Tuple

from repro.errors import ReproError

__all__ = ["Span", "SpanTracer"]

#: Completed spans per chunk.  A constant, not a setting: large enough
#: that a chunk's per-block overhead vanishes, small enough that the one
#: unsealed chunk stays a rounding error.  Block numbers are sealed into
#: an ``array('H')``, so it must not exceed 65 536.
CHUNK_SPANS = 4096


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


#: A span's shape: ``(track, name, category, *attr keys)``.  Spans of one
#: shape form a *block*; its rows are ``sid, parent, start, end, *attr
#: values`` -- ``len(shape) + 1`` cells each -- in completion order.
_Shape = Tuple[str, ...]
#: A chunk: the block number of each completion in order, and per block
#: its shape with either its rows end to end in one flat list of cells
#: (the chunk being filled) or, once sealed, one packed column per cell
#: of a row.
_Chunk = Tuple[Any, List[Tuple[_Shape, Any]]]


#: The exact types whose columns pack, with their array codes (a column
#: of nothing but ``None`` packs to nothing at all).
_CODES = {float: "d", int: "q", type(None): None}


def _pack(column: List[Any]) -> Any:
    """The smallest container that gives ``column``'s values back
    unchanged in value *and* type (see the module docstring).  The
    arrays are filled through ``struct.pack``, which converts a whole
    column in one C call where ``array(code, column)`` converts item by
    item."""
    kind = type(column[0])
    if kind not in _CODES \
            or list(map(type, column)).count(kind) != len(column):
        return column
    code = _CODES[kind]
    if code is None:
        return None
    try:
        return array(code, struct.pack(f"{len(column)}{code}", *column))
    except struct.error:  # an int beyond 64 bits
        return column


def _replay(chunk: _Chunk, skip: int, sealed: bool) -> Iterator[Span]:
    """The chunk's spans in completion order, from position ``skip``."""
    order, blocks = chunk
    passed = Counter(order[:skip])
    heads, feeds = [], []
    for number, (shape, data) in enumerate(blocks):
        heads.append((shape[0], shape[1], shape[2], shape[3:]))
        if sealed:
            feeds.append(zip(*(
                repeat(None) if column is None
                else islice(column, passed[number], None)
                for column in data)))
        else:
            width = len(shape) + 1
            feeds.append(zip(*[islice(data, passed[number] * width, None)]
                             * width))
    for number in islice(order, skip, None):
        track, name, category, keys = heads[number]
        sid, parent, start, end, *values = next(feeds[number])
        yield Span(sid, parent, track, name, category, start, end,
                   dict(zip(keys, values)))


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
        #: Sealed chunks, oldest first, each of exactly CHUNK_SPANS rows.
        self._chunks: Deque[_Chunk] = deque()
        #: The chunk being filled: completion order, and per shape its
        #: block number and cells.
        self._order: List[int] = []
        self._filling: Dict[_Shape, Tuple[int, List[Any]]] = {}
        #: Rows at the front of the oldest chunk (the filling one when
        #: none is sealed yet) that the bound has evicted.
        self._head = 0
        #: Spans retained: every row held, less ``_head``.
        self._size = 0
        self._stacks: Dict[str, List[Span]] = {}
        self._next_sid = 0
        #: Completed spans evicted by the bound.
        self.dropped_spans = 0

    # -- recording -----------------------------------------------------------

    def begin(self, track: str, name: str, category: str, start: float,
              attrs: Optional[Dict[str, Any]] = None) -> Span:
        """Open a span; it nests under the track's current open span."""
        stack = self._stacks.setdefault(track, [])
        span = Span(self._alloc_sid(), stack[-1].sid if stack else None,
                    track, name, category, start, None,
                    dict(attrs) if attrs else {})
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
        self._buffer(span.sid, span.parent, span.track, span.name,
                     span.category, span.start, end, span.attrs)
        return span

    def event(self, track: str, name: str, category: str, time: float,
              attrs: Optional[Dict[str, Any]] = None) -> Span:
        """Record an instant (zero-duration span) on a track."""
        stack = self._stacks.get(track)
        return self._record(stack[-1].sid if stack else None, track, name,
                            category, time, time, attrs)

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
        return self._record(None, track, name, category, start, end, attrs)

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

    def __len__(self) -> int:
        return self._size

    def __iter__(self) -> Iterator[Span]:
        """Completed spans, oldest first, materialised a chunk at a time."""
        return self._from(0)

    @property
    def spans(self) -> List[Span]:
        """Completed spans, oldest first (a fresh list of fresh objects)."""
        return list(self)

    @property
    def completed(self) -> int:
        """Spans completed so far, evicted ones included (never falls)."""
        return self._size + self.dropped_spans

    def tail(self, count: int) -> List[Span]:
        """The last ``count`` completed spans, oldest first, touching
        only the chunks those spans sit in."""
        return list(self._from(max(0, self._size - count)))

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
        completed = (shape[0] for shape, _ in self._census())
        still_open = (track for track, stack in self._stacks.items() if stack)
        return list(dict.fromkeys(chain(completed, still_open)))

    def counts(self) -> Dict[Tuple[str, str], int]:
        """(category, name) -> completed span count."""
        out: Dict[Tuple[str, str], int] = {}
        for shape, count in self._census():
            key = (shape[2], shape[1])
            out[key] = out.get(key, 0) + count
        return out

    def snapshot_state(self) -> Dict[str, Any]:
        """Summary state tree (for checkpoint diffing; spans themselves
        are exported, not checkpointed)."""
        return {
            "max_spans": self.max_spans,
            "strict": self.strict,
            "next_sid": self._next_sid,
            "completed": self._size,
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

    def _record(self, parent: Optional[int], track: str, name: str,
                category: str, start: float, end: float,
                attrs: Optional[Dict[str, Any]]) -> Span:
        """Buffer a span that is complete when first heard of; the
        caller gets a :class:`Span` of its own to read."""
        sid = self._alloc_sid()
        own = dict(attrs) if attrs else {}
        self._buffer(sid, parent, track, name, category, start, end, own)
        return Span(sid, parent, track, name, category, start, end, own)

    def _buffer(self, sid: int, parent: Optional[int], track: str, name: str,
                category: str, start: float, end: float,
                attrs: Dict[str, Any]) -> None:
        """Retain a completed span as a row of its shape's block."""
        if self._size < self.max_spans:
            self._size += 1
        elif self.strict:
            raise ReproError(
                f"span buffer overflow at {self.max_spans} spans "
                f"(strict mode)"
            )
        else:
            self.dropped_spans += 1
            self._head += 1
            if self._head == CHUNK_SPANS and self._chunks:
                self._chunks.popleft()
                self._head = 0
        shape = (track, name, category, *attrs)
        block = self._filling.get(shape)
        if block is None:
            block = self._filling[shape] = (len(self._filling), [])
        order = self._order
        order.append(block[0])
        block[1].extend((sid, parent, start, end, *attrs.values()))
        if len(order) == CHUNK_SPANS:
            self._seal()

    def _seal(self) -> None:
        """Pack the filling chunk's cells into columns, block by block,
        and start a new one."""
        blocks = []
        for shape, (_, cells) in self._filling.items():
            width = len(shape) + 1
            blocks.append((shape, [_pack(cells[cell::width])
                                   for cell in range(width)]))
        self._chunks.append((array("H", self._order), blocks))
        self._order = []
        self._filling = {}

    def _chunk_walk(self, skip: int) -> Iterator[Tuple[_Chunk, int, bool]]:
        """``(chunk, rows to pass over, sealed?)`` for each chunk holding
        a retained span at or after position ``skip``, oldest first.
        Chunks wholly before it are stepped over, not walked."""
        first, offset = divmod(self._head + skip, CHUNK_SPANS)
        chunks = self._chunks
        for index in range(first, len(chunks)):
            yield chunks[index], offset, True
            offset = 0
        if first > len(chunks):
            return
        filling = [(shape, cells)
                   for shape, (_, cells) in self._filling.items()]
        yield (self._order, filling), offset, False

    def _from(self, skip: int) -> Iterator[Span]:
        """Retained spans from position ``skip`` on, oldest first."""
        for chunk, offset, sealed in self._chunk_walk(skip):
            yield from _replay(chunk, offset, sealed)

    def _census(self) -> Iterator[Tuple[_Shape, int]]:
        """``(shape, retained spans)`` per block, in first-completion
        order within each chunk, chunks oldest first -- read off the
        order arrays and block headers without touching a row."""
        for (order, blocks), offset, _ in self._chunk_walk(0):
            for number, count in Counter(order[offset:]).items():
                yield blocks[number][0], count

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<SpanTracer spans={len(self)} "
                f"open={len(self.open_spans())} "
                f"dropped={self.dropped_spans}>")
