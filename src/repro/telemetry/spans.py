"""Span-based tracing over virtual time.

A :class:`Span` is a named interval on a *track* (one per kernel, plus
a synthetic ``checkpoint`` track), carrying a
category, JSON-typed attributes, and an optional parent.  Spans nest:
each track keeps a stack of open spans, and a span begun while another
is open becomes its child, so a lottery draw recorded during a quantum
appears inside that quantum in the trace viewer.

All timestamps are **virtual milliseconds** from the discrete-event
engine -- never the host clock -- so two runs of the same seed produce
byte-identical traces (the determinism contract, docs/CHECKPOINT.md
"The determinism contract", extends to observability).  Span ids are
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
position, packed in bulk.

A shape is worked out once, not once per span: ``tracer.site(track,
name, category, keys)`` returns the shape's *site*, the one object that
writes its rows.  A site lives as long as the tracer; it owns the
shape's cells in the chunk being filled and joins that chunk (takes the
next block number) with its first row after each seal, so a shape that
goes quiet costs a sealed chunk nothing.  Its ``event`` / ``complete``
/ ``end`` take the attr values positionally, in key order, and are the
only code that files a row; ``SpanTracer.event`` / ``complete`` /
``end`` are a site lookup in front of them (plus the :class:`Span` they
hand back), so a caller that records one shape many times -- the kernel
probe -- holds the site's bound method and skips the lookup, the attrs
``dict`` and the ``Span``.  A column's container follows the *exact*
types of its values, each kind at its values' width:

* all ``float`` -> ``array('d')``;
* all ``int`` -> the narrowest signed array whose range, as the
  platform sizes it, holds every value: ``'b'``, ``'h'``, ``'i'`` or
  ``'q'``;
* all ``str`` -> a table of its distinct values and a code per row,
  one byte each (two bytes past 256 distinct strings);
* all ``bool`` -> one byte per row, ``0`` or ``1``;
* all ``None`` -> nothing;
* anything else (ints mixed with floats, ints beyond 64 bits, a
  subclass of ``str`` or ``bool``, nested lists or dicts) -> the
  original objects.

An end column whose cells *are* the start column's -- every instant
files one time object as both -- is one packed column, stored twice.
What a reader gets back is therefore equal to and of the same type as
what was recorded (``0`` never returns as ``0.0``, ``True`` never as
``1``, ``-0.0`` keeps its sign), and every export is byte-identical to
one taken from a buffer of ``Span`` objects -- at about a twelfth of
the memory (~33 B a span against ~400 on the hub's usual mix).

The buffer is bounded with drop-oldest semantics: completed spans beyond
``max_spans`` evict the oldest completed span and increment
``dropped_spans`` (or raise in ``strict`` mode).  Eviction moves an
offset into the oldest chunk, which is let go when the offset passes
its end, so up to ``CHUNK_SPANS - 1`` evicted rows may still occupy
memory -- never a reader's view.  Open spans live on the per-track
stacks and are only buffered once finished.  A track's stack is one
list for the tracer's whole life -- pushed to and popped from, never
replaced -- because every site of the track holds it.
"""

from __future__ import annotations

import struct
from array import array
from collections import Counter, deque
from dataclasses import dataclass, field
from itertools import chain, islice, repeat
from math import inf
from operator import is_
from typing import (Any, Deque, Dict, Iterable, Iterator, List, Optional,
                    Tuple)

from repro.errors import ReproError

__all__ = ["Span", "SpanTracer"]

#: Completed spans per chunk.  A constant, not a setting: large enough
#: that a chunk's per-block overhead vanishes, small enough that the one
#: unsealed chunk stays a rounding error.  Block numbers and string
#: codes are sealed into two bytes at most, so it must not exceed 65 536.
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
    #: Coarse grouping: kernel, scheduler, ipc, shard, fault, checkpoint.
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
#: of a row: an array, a list, ``None`` (every cell ``None``) or, for
#: strings and bools, a ``(table, codes)`` pair.
_Chunk = Tuple[Any, List[Tuple[_Shape, Any]]]


#: Signed array codes, narrowest first.  An all-``int`` column takes the
#: first whose range holds every value -- ``struct``'s own range check
#: decides, so the widths are the platform's.
_INT_CODES = ("b", "h", "i", "q")
#: A bool column's table: its codes are the bools' own ``bytes``.
_BOOLS = (False, True)


def _pack(column: List[Any]) -> Any:
    """The smallest container that gives ``column``'s values back
    unchanged in value *and* type (see the module docstring).  No value
    is touched by a Python-level loop: the arrays are filled through
    ``struct.pack``, which converts a whole column in one C call where
    ``array(code, column)`` converts item by item."""
    kind = type(column[0])
    if list(map(type, column)).count(kind) != len(column):
        return column
    rows = len(column)
    if kind is float:
        return array("d", struct.pack(f"{rows}d", *column))
    if kind is int:
        for code in _INT_CODES:
            try:
                return array(code, struct.pack(f"{rows}{code}", *column))
            except struct.error:  # a value beyond the code's range
                pass
        return column  # an int beyond 64 bits
    if kind is str:
        # One code per distinct string: a byte, or two bytes past 256
        # strings, which always suffice -- a chunk has at most
        # CHUNK_SPANS rows.
        table = tuple(sorted(set(column)))
        codes = map(dict(zip(table, range(len(table)))).__getitem__, column)
        return table, (bytes(codes) if len(table) <= 256
                       else array("H", struct.pack(f"{rows}H", *codes)))
    if kind is bool:
        return _BOOLS, bytes(column)  # False -> 0, True -> 1
    if kind is type(None):
        return None
    return column


def _cells(column: Any, skip: int) -> Iterator[Any]:
    """A sealed column's values from row ``skip`` on."""
    if column is None:
        return repeat(None)
    if type(column) is tuple:
        table, codes = column
        return map(table.__getitem__, islice(codes, skip, None))
    return islice(column, skip, None)


def _replay(chunk: _Chunk, skip: int, sealed: bool) -> Iterator[Span]:
    """The chunk's spans in completion order, from position ``skip``."""
    order, blocks = chunk
    passed = Counter(order[:skip])
    heads, feeds = [], []
    for number, (shape, data) in enumerate(blocks):
        heads.append((shape[0], shape[1], shape[2], shape[3:]))
        if sealed:
            feeds.append(zip(*(_cells(column, passed[number])
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


class _Site:
    """The writer of one shape's rows (see "Retention" in the module
    docstring); get one from :meth:`SpanTracer.site`.

    ``event``, ``complete`` and ``end`` each allocate or take the sid,
    settle the parent, and file the row.  The filing -- make room, join
    the chunk, append -- closes all three in the same few lines and
    not in a routine of its own: a second Python frame per span is the
    cost a site exists to avoid.  What is rare in it (the bound
    reached, the first row after a seal, the seal) is the tracer's.
    """

    __slots__ = ("tracer", "shape", "stack", "number", "cells")

    def __init__(self, tracer: "SpanTracer", shape: _Shape,
                 stack: List[Span]) -> None:
        self.tracer = tracer
        self.shape = shape
        #: The track's open spans, innermost last (the tracer's list).
        self.stack = stack
        #: Block number in the chunk being filled; -1 until it joins.
        self.number = -1
        #: This shape's rows in that chunk, end to end.
        self.cells: List[Any] = []

    def begin(self, start: float, attrs: Dict[str, Any]) -> Span:
        """Open a span of this shape at ``start`` under the track's
        innermost open span, owning ``attrs`` (the leading keys')."""
        if not -inf < start < inf:
            raise ReproError(f"span {self.shape[1]!r} has no finite start: "
                             f"start={start:g}ms")
        stack = self.stack
        tracer = self.tracer
        parked = tracer._parked
        if parked and self.shape[0] in parked:  # the track's first begin
            tracer._stacks[self.shape[0]] = parked.pop(self.shape[0])
        sid = tracer._next_sid
        tracer._next_sid = sid + 1
        span = Span(sid, stack[-1].sid if stack else None, *self.shape[:3],
                    start, None, attrs)
        stack.append(span)
        return span

    def event(self, time: float, *values: Any) -> int:
        """File an instant at ``time`` under the track's innermost open
        span; ``values`` are the attr values in key order.  Returns the
        new span's id."""
        if not -inf < time < inf:
            raise ReproError(f"event span {self.shape[1]!r} has no finite "
                             f"time: time={time:g}ms")
        tracer = self.tracer
        sid = tracer._next_sid
        tracer._next_sid = sid + 1
        if tracer._size < tracer.max_spans:
            tracer._size += 1
        else:
            tracer._make_room()
        if self.number < 0:
            tracer._join(self)
        order = tracer._order
        order.append(self.number)
        stack = self.stack
        self.cells.extend((sid, stack[-1].sid if stack else None,
                           time, time, *values))
        if len(order) == CHUNK_SPANS:
            tracer._seal()
        return sid

    def complete(self, start: float, end: float, *values: Any) -> int:
        """File an already-finished interval; it nests under nothing.
        Returns the new span's id."""
        if not -inf < start <= end < inf:
            problem = "negative duration" if end < start else "no finite time"
            raise ReproError(
                f"complete span {self.shape[1]!r} has {problem}: "
                f"start={start:g}ms, end={end:g}ms"
            )
        tracer = self.tracer
        sid = tracer._next_sid
        tracer._next_sid = sid + 1
        if tracer._size < tracer.max_spans:
            tracer._size += 1
        else:
            tracer._make_room()
        if self.number < 0:
            tracer._join(self)
        order = tracer._order
        order.append(self.number)
        self.cells.extend((sid, None, start, end, *values))
        if len(order) == CHUNK_SPANS:
            tracer._seal()
        return sid

    def end(self, span: Span, end: float, *trailing: Any) -> None:
        """Close ``span`` -- open on this site's track, begun with the
        shape's leading keys -- at ``end`` and file it; ``trailing`` are
        the values of the keys the end adds."""
        if span.end is not None:
            raise ReproError(f"span {span.sid} ({span.name!r}) already ended")
        if not span.start <= end < inf:
            problem = ("would end before it started" if end < span.start
                       else "has no finite end")
            raise ReproError(
                f"span {span.sid} ({span.name!r}) {problem}: "
                f"start={span.start:g}ms, end={end:g}ms"
            )
        stack = self.stack
        if stack and stack[-1] is span:
            stack.pop()
        else:  # ended out of order -- or never begun here
            for depth, candidate in enumerate(stack):
                if candidate is span:
                    del stack[depth]
                    break
            else:
                raise ReproError(
                    f"span {span.sid} ({span.name!r}) is not open on this "
                    f"tracer's track {self.shape[0]!r}")
        span.end = end
        tracer = self.tracer
        if tracer._size < tracer.max_spans:
            tracer._size += 1
        else:
            tracer._make_room()
        if self.number < 0:
            tracer._join(self)
        order = tracer._order
        order.append(self.number)
        self.cells.extend((span.sid, span.parent, span.start, end,
                           *span.attrs.values(), *trailing))
        if len(order) == CHUNK_SPANS:
            tracer._seal()


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
        #: The chunk being filled: completion order, and the sites that
        #: have joined it, in block-number order.
        self._order: List[int] = []
        self._blocks: List[_Site] = []
        #: Every shape recorded so far -> its site.
        self._sites: Dict[_Shape, _Site] = {}
        #: Rows at the front of the oldest chunk (the filling one when
        #: none is sealed yet) that the bound has evicted.
        self._head = 0
        #: Spans retained: every row held, less ``_head``.
        self._size = 0
        #: Open spans per track, innermost last, in first-``begin``
        #: order of the tracks (``tracks()`` reports it); a track that
        #: has a site but has begun no span yet keeps its (empty) stack
        #: in ``_parked``.  Either way a track has one list for life.
        self._stacks: Dict[str, List[Span]] = {}
        self._parked: Dict[str, List[Span]] = {}
        self._next_sid = 0
        #: Completed spans evicted by the bound.
        self.dropped_spans = 0

    # -- recording -----------------------------------------------------------

    def site(self, track: str, name: str, category: str,
             keys: Iterable[str] = ()) -> _Site:
        """The writer of spans of this shape: get-or-create, one per
        ``(track, name, category, *keys)`` for the tracer's life."""
        shape = (track, name, category, *keys)
        site = self._sites.get(shape)
        if site is None:
            stack = self._stacks.get(track)
            if stack is None:
                stack = self._parked.setdefault(track, [])
            site = self._sites[shape] = _Site(self, shape, stack)
        return site

    def begin(self, track: str, name: str, category: str, start: float,
              attrs: Optional[Dict[str, Any]] = None) -> Span:
        """Open a span; it nests under the track's current open span."""
        own = dict(attrs) if attrs else {}
        return self.site(track, name, category, own).begin(start, own)

    def end(self, span: Span, end: float,
            attrs: Optional[Dict[str, Any]] = None) -> Span:
        """Close an open span at virtual time ``end`` and buffer it."""
        own = span.attrs
        merged = {**own, **attrs} if attrs else own
        site = self.site(span.track, span.name, span.category, merged)
        # The row is read off the span, which takes the end's attrs only
        # once the end is accepted.
        span.attrs = merged
        try:
            site.end(span, end)
        finally:
            span.attrs = own
        own.update(merged)
        return span

    def event(self, track: str, name: str, category: str, time: float,
              attrs: Optional[Dict[str, Any]] = None) -> Span:
        """Record an instant (zero-duration span) on a track."""
        own = dict(attrs) if attrs else {}
        site = self.site(track, name, category, own)
        parent = site.stack[-1].sid if site.stack else None
        return Span(site.event(time, *own.values()), parent, track, name,
                    category, time, time, own)

    def complete(self, track: str, name: str, category: str, start: float,
                 end: float, attrs: Optional[Dict[str, Any]] = None) -> Span:
        """Record an already-finished interval (e.g. an RPC measured at
        reply time).  It does not nest under open spans -- intervals
        reported after the fact may straddle many of them."""
        own = dict(attrs) if attrs else {}
        site = self.site(track, name, category, own)
        return Span(site.complete(start, end, *own.values()), None, track,
                    name, category, start, end, own)

    def finalize(self, time: float) -> int:
        """Close every open span at ``time`` (end of a run); returns the
        number closed."""
        if not -inf < time < inf:
            raise ReproError(f"finalize has no finite time: time={time:g}ms")
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

    def _make_room(self) -> None:
        """The buffer is full: refuse the span (strict) or evict the
        oldest row."""
        if self.strict:
            raise ReproError(
                f"span buffer overflow at {self.max_spans} spans "
                f"(strict mode)"
            )
        self.dropped_spans += 1
        self._head += 1
        if self._head == CHUNK_SPANS and self._chunks:
            self._chunks.popleft()
            self._head = 0

    def _join(self, site: _Site) -> None:
        """A site's first row since the last seal: the next block."""
        site.number = len(self._blocks)
        self._blocks.append(site)

    def _seal(self) -> None:
        """Pack the filling chunk's cells into columns, block by block,
        and start a new one, which no site has joined."""
        blocks = []
        for site in self._blocks:
            cells, width = site.cells, len(site.shape) + 1
            starts, ends = cells[2::width], cells[3::width]
            start = _pack(starts)
            # By identity, never ``==``, which would take -0.0 for 0.0.
            end = start if all(map(is_, starts, ends)) else _pack(ends)
            blocks.append((site.shape, [
                _pack(cells[0::width]), _pack(cells[1::width]), start, end,
                *(_pack(cells[cell::width]) for cell in range(4, width))]))
            site.cells = []
            site.number = -1
        self._chunks.append((
            array("B" if len(blocks) <= 256 else "H", self._order), blocks))
        self._order = []
        self._blocks = []

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
        filling = [(site.shape, site.cells) for site in self._blocks]
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
