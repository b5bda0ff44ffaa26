"""The chunked span store against the store it replaced.

``_DequeTracer`` is the previous ``SpanTracer`` kept whole as the naive
reference: every completed span is a ``Span`` object in a deque.  Both
are driven with the same generated ``begin`` / ``end`` / ``event`` /
``complete`` / ``finalize`` sequences and must agree on everything a
reader can see -- values *and* types, since an ``int`` that comes back a
``float`` (or a ``bool`` an ``int``) changes the exported bytes.

The chunk size is patched down to 4 so that a few dozen operations
cross several seals, and ``max_spans`` is drawn around its multiples so
that eviction lands inside the filling chunk, on a chunk boundary and
several chunks deep.
"""

from __future__ import annotations

import enum
import math
from collections import deque
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import CheckpointError, ReproError
from repro.telemetry import spans as spans_module
from repro.telemetry.exporters import export_chrome, export_jsonl
from repro.telemetry.spans import Span, SpanTracer

CHUNK = 4


class _DequeTracer:
    """The store before chunks: one ``Span`` per completed span."""

    def __init__(self, max_spans=1_000_000, strict=False):
        self.max_spans, self.strict = max_spans, strict
        self._spans = deque()
        self._stacks = {}
        self._next_sid = 0
        self.dropped_spans = 0

    def _span(self, parent, track, name, category, start, end, attrs):
        self._next_sid += 1
        return Span(sid=self._next_sid - 1, parent=parent, track=track,
                    name=name, category=category, start=start, end=end,
                    attrs=dict(attrs or {}))

    def begin(self, track, name, category, start, attrs=None):
        stack = self._stacks.setdefault(track, [])
        span = self._span(stack[-1].sid if stack else None, track, name,
                          category, start, None, attrs)
        stack.append(span)
        return span

    def end(self, span, end, attrs=None):
        if span.end is not None:
            raise ReproError(f"span {span.sid} ({span.name!r}) already ended")
        if end < span.start:
            raise ReproError(f"span {span.sid} would end before it started")
        span.end = end
        span.attrs.update(attrs or {})
        stack = self._stacks.get(span.track, [])
        if span in stack:
            stack.remove(span)
        self._buffer(span)
        return span

    def event(self, track, name, category, time, attrs=None):
        stack = self._stacks.get(track, [])
        span = self._span(stack[-1].sid if stack else None, track, name,
                          category, time, time, attrs)
        self._buffer(span)
        return span

    def complete(self, track, name, category, start, end, attrs=None):
        if end < start:
            raise ReproError(f"complete span {name!r} has negative duration")
        span = self._span(None, track, name, category, start, end, attrs)
        self._buffer(span)
        return span

    def finalize(self, time):
        closed = 0
        for track in sorted(self._stacks):
            while self._stacks[track]:
                span = self._stacks[track][-1]
                self.end(span, max(time, span.start), {"finalized": True})
                closed += 1
        return closed

    def _buffer(self, span):
        if len(self._spans) >= self.max_spans:
            if self.strict:
                raise ReproError("span buffer overflow (strict mode)")
            self._spans.popleft()
            self.dropped_spans += 1
        self._spans.append(span)

    spans = property(lambda self: list(self._spans))
    completed = property(lambda self: len(self._spans) + self.dropped_spans)

    def tail(self, count):
        return list(self._spans)[max(0, len(self._spans) - count):]

    def open_spans(self):
        return [span for track in sorted(self._stacks)
                for span in self._stacks[track]]

    def tracks(self):
        seen = [span.track for span in self._spans]
        seen += [track for track, stack in self._stacks.items() if stack]
        return list(dict.fromkeys(seen))

    def counts(self):
        out = {}
        for span in self._spans:
            key = (span.category, span.name)
            out[key] = out.get(key, 0) + 1
        return out

    def __len__(self):
        return len(self._spans)

    def __iter__(self):
        return iter(self._spans)


# -- generated inputs ---------------------------------------------------------

#: Every packing edge: ``True`` beside ``1``, ``None``, ints at and
#: beyond both ends of each signed width (8, 16, 32 and 64 bits), ``0``
#: beside ``0.0`` beside ``-0.0``, infinities, strings, nested
#: containers.  (No NaN: it is unequal to itself, so ``==`` could not
#: compare it; ``test_nan_...`` covers it.)
_SCALARS = st.one_of(
    st.sampled_from([True, False, 0, 1, None, 0.0, -0.0, 1.0, 2.5,
                     math.inf, -math.inf, 127, 128, -128, -129, 32_767,
                     32_768, 2 ** 31 - 1, 2 ** 31, -2 ** 31 - 1,
                     2 ** 63 - 1, 2 ** 63, -2 ** 63, -2 ** 63 - 1, 10 ** 30,
                     "", "fe:gold:0", "1"]),
    st.integers(-5, 5), st.floats(-4.0, 4.0, allow_nan=False),
)
_VALUES = st.one_of(
    _SCALARS, st.lists(_SCALARS, max_size=2),
    st.dictionaries(st.sampled_from(["x", "y"]), _SCALARS, max_size=2))
#: Two keys, any subset in either order, and few (track, name, category)
#: triples, one of them favoured: spans of one chunk often share a block,
#: so a column changes type mid-chunk, while one span name still shows up
#: with different key sets and key orders.
_ATTRS = st.one_of(
    st.none(),
    st.lists(st.sampled_from(["a", "b"]), unique=True, max_size=2)
    .flatmap(lambda keys: st.fixed_dictionaries(
        {key: _VALUES for key in keys})))
_WHO = st.sampled_from([
    ("k0", "quantum", "kernel"), ("k0", "quantum", "kernel"),
    ("k0", "lottery.draw", "kernel"), ("k1", "quantum", "ipc"),
    ("cluster", "ipc.rpc", "ipc")])
#: Int- and float-typed instants: ``0`` must not come back ``0.0``.
_TIMES = st.sampled_from([0, 0.0, -0.0, 1, 1.0, 2.5, 7, 40.0])
_OPS = st.lists(st.one_of(
    st.tuples(st.just("begin"), _WHO, _TIMES, _ATTRS),
    st.tuples(st.just("end"), st.integers(0, 7), _TIMES, _ATTRS),
    st.tuples(st.just("event"), _WHO, _TIMES, _ATTRS),
    st.tuples(st.just("complete"), _WHO, _TIMES, _TIMES, _ATTRS),
    st.tuples(st.just("finalize"), _TIMES),
), max_size=70)
_BOUNDS = st.sampled_from([1, 7, CHUNK - 1, CHUNK, CHUNK + 1, 3 * CHUNK + 5])


def _exact(value):
    """``repr`` tells ``0`` from ``0.0`` from ``-0.0`` and ``True`` from
    ``1`` at any depth, and a dataclass's shows every field: equal
    ``repr`` is equal values *and* equal types."""
    return [repr(item) for item in value] if isinstance(value, list) \
        else repr(value)


def _apply(tracer, begun, op):
    """Run one operation; ``begun`` is this tracer's spans from
    ``begin`` (ended or not: ending one twice must fail alike)."""
    kind = op[0]
    try:
        if kind == "begin":
            _, who, time, attrs = op
            begun.append(tracer.begin(*who, time, attrs))
            return _exact(begun[-1])
        if kind == "end":
            _, which, time, attrs = op
            if not begun:
                return None
            return _exact(tracer.end(begun[which % len(begun)], time, attrs))
        if kind == "event":
            _, who, time, attrs = op
            return _exact(tracer.event(*who, time, attrs))
        if kind == "complete":
            _, who, start, end, attrs = op
            return _exact(tracer.complete(*who, start, end, attrs))
        return tracer.finalize(op[1])
    except ReproError:
        return "ReproError"


def _export(exporter, tracer):
    """The export's text, or its refusal: the canonical encoding takes
    no NaN or infinity, so a span holding one in its attrs is refused."""
    try:
        return exporter(tracer)
    except CheckpointError as exc:
        return f"refused: {exc}"


def _views(tracer):
    return {
        "spans": _exact(tracer.spans),
        "tails": [_exact(tracer.tail(count)) for count in
                  (0, 1, 2, CHUNK, CHUNK + 1, 2 * CHUNK + 1, 999)],
        "len": len(tracer),
        "completed": tracer.completed,
        "dropped": tracer.dropped_spans,
        "tracks": tracer.tracks(),
        "counts": list(tracer.counts().items()),
        "open": _exact(tracer.open_spans()),
        "jsonl": _export(export_jsonl, tracer),
        "chrome": _export(export_chrome, tracer),
    }


@settings(max_examples=300, deadline=None)
@given(ops=_OPS, max_spans=_BOUNDS, strict=st.booleans())
def test_chunked_store_reads_back_what_the_deque_did(ops, max_spans, strict):
    with mock.patch.object(spans_module, "CHUNK_SPANS", CHUNK):
        old = _DequeTracer(max_spans=max_spans, strict=strict)
        new = SpanTracer(max_spans=max_spans, strict=strict)
        old_begun, new_begun = [], []
        for step, op in enumerate(ops):
            # Same result, or the same refusal at the same call.
            assert _apply(new, new_begun, op) == _apply(old, old_begun, op), \
                (step, op)
            assert len(new) == len(old)
            assert _exact(new.tail(3)) == _exact(old.tail(3)), (step, op)
        assert _views(new) == _views(old)
        assert new.spans == old.spans


def test_strict_raises_at_the_same_call_across_a_seal():
    with mock.patch.object(spans_module, "CHUNK_SPANS", CHUNK):
        tracer = SpanTracer(max_spans=CHUNK + 1, strict=True)
        for index in range(CHUNK + 1):
            tracer.event("k", "e", "kernel", float(index))
        with pytest.raises(ReproError, match="overflow"):
            tracer.event("k", "e", "kernel", 9.0)
        assert len(tracer) == CHUNK + 1 and tracer.dropped_spans == 0


def test_nan_and_signed_zero_survive_a_seal():
    with mock.patch.object(spans_module, "CHUNK_SPANS", CHUNK):
        tracers = _DequeTracer(), SpanTracer()
        for tracer in tracers:
            for value in (math.nan, -0.0, 0.0, math.inf, 1e308, 5e-324):
                tracer.event("k", "e", "kernel", 0, {"v": value})
        old, new = tracers
        assert len(new._chunks) == 1
        assert _exact(new.spans) == _exact(old.spans)
        for exporter in (export_jsonl, export_chrome):
            assert _export(exporter, new) == _export(exporter, old)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("exporter", [export_jsonl, export_chrome])
def test_a_non_finite_attr_is_refused_by_the_canonical_encoding(exporter,
                                                                value):
    """Exports go through ``canonical_json``, which has no NaN or
    Infinity: once written as the bare tokens ``NaN`` / ``Infinity``,
    which no strict JSON reader takes back."""
    tracer = SpanTracer()
    tracer.event("k", "e", "kernel", 0.0, {"v": value})
    with pytest.raises(CheckpointError,
                       match="not canonically serializable: Out of range"):
        exporter(tracer)


class _Name(str):
    """A ``str`` subclass: equal to a plain string, but not one."""


class _Code(enum.IntEnum):
    """An ``int`` subclass."""

    OK = 0


def test_columns_at_their_values_width_read_back_exactly():
    """At the real chunk size: a string column of more than 256
    distinct values, string-only and bool-only columns, and an
    instant-shaped ``complete`` from ``0.0`` to ``-0.0`` (equal, but
    not the same time) read back as the deque keeps them -- as do a
    ``str`` subclass and an ``int`` subclass, which stay objects."""
    rows = spans_module.CHUNK_SPANS
    tracers = _DequeTracer(), SpanTracer()
    for tracer in tracers:
        for index in range(2 * rows + 5):
            tracer.event("k", "names", "kernel", float(index),
                         {"name": f"thread{index % 300}"})
            tracer.event("k", "flags", "kernel", index,
                         {"on": index % 3 == 0, "off": False})
            tracer.event("k", "words", "kernel", 2.5,
                         {"word": ("gold", "silver")[index % 2],
                          "alias": _Name("gold") if index == 7 else "gold"})
            tracer.complete("k", "zero", "kernel", 0.0, -0.0,
                            {"n": index - 129, "exit": _Code.OK})
    old, new = tracers
    assert len(new._chunks) == 8
    assert _exact(new.spans) == _exact(old.spans)
    assert export_jsonl(new) == export_jsonl(old)
    assert export_chrome(new) == export_chrome(old)
    words = [span for span in new.spans if span.name == "words"]
    zeros = [span for span in new.spans if span.name == "zero"]
    assert {type(span.attrs["alias"]) for span in words} == {str, _Name}
    assert {type(span.attrs["exit"]) for span in zeros} == {_Code}
    assert {(repr(span.start), repr(span.end)) for span in zeros} \
        == {("0.0", "-0.0")}
    # Each column took the container its values call for; an instant's
    # end column is its start column, a 0.0 -> -0.0 span's is not.
    columns = {shape[1]: data for shape, data in new._chunks[0][1]}
    table, codes = columns["names"][4]
    assert len(table) == 300 and codes.typecode == "H"
    assert columns["flags"][4][1] == bytes(
        index % 3 == 0 for index in range(rows // 4))
    assert len(columns["words"][4][0]) == 2
    assert columns["zero"][4].typecode == "h"
    assert type(columns["words"][5]) is type(columns["zero"][5]) is list
    assert columns["names"][2] is columns["names"][3]
    assert columns["zero"][2] is not columns["zero"][3]


def test_a_returned_span_is_the_callers_copy():
    tracer = SpanTracer()
    attrs = {"n": 1}
    span = tracer.event("k", "e", "kernel", 0.0, attrs)
    attrs["n"] = span.attrs["n"] = 2
    span.name = "changed"
    assert tracer.spans[0].attrs == {"n": 1}
    assert tracer.spans[0].name == "e"
    assert tracer.spans[0] is not tracer.spans[0]


# -- a shape's site against the generic calls ---------------------------------

#: (track, name, category, attr keys): three tracks, one name under two
#: key sets and two key orders, one shape with no attrs at all.
_SHAPES = [
    ("k0", "quantum", "kernel", ("a", "b")),
    ("k0", "quantum", "kernel", ("b", "a")),
    ("k0", "lottery.draw", "scheduler", ("a",)),
    ("k1", "quantum", "kernel", ("a", "b")),
    ("k1", "ipc.send", "ipc", ()),
    ("cluster", "ipc.rpc", "ipc", ("b",)),
]
_SITE_TIMES = st.sampled_from([0, 0.0, 1, 1.0, 2.5, 7, 40.0, math.nan,
                               math.inf, -math.inf])
_SHAPE = st.integers(0, len(_SHAPES) - 1)
_PAIR = st.tuples(_VALUES, _VALUES)
#: Every recording op carries ``via_site``: whether the mixed tracer makes
#: the call on the shape's site or, like the reference, generically.
#: ``begin`` has no site form; it leaves the keys from ``split`` on to
#: the ``end``, which looks the span's shape up again.
_SITE_OPS = st.lists(st.one_of(
    st.tuples(st.just("begin"), _SHAPE, _SITE_TIMES, _PAIR,
              st.integers(0, 2)),
    st.tuples(st.just("end"), st.integers(0, 7), _SITE_TIMES, _PAIR,
              st.booleans()),
    st.tuples(st.just("event"), _SHAPE, _SITE_TIMES, _PAIR, st.booleans()),
    st.tuples(st.just("complete"), _SHAPE, _SITE_TIMES, _SITE_TIMES, _PAIR,
              st.booleans()),
    st.tuples(st.just("finalize"), _SITE_TIMES),
), max_size=40)


def _apply_site(tracer, begun, op, shapes, may_use_site):
    """Run one operation on ``tracer``, through the shape's site when
    the op says so and ``may_use_site``; True when it was accepted."""
    kind = op[0]
    try:
        if kind == "finalize":
            tracer.finalize(op[1])
            return True
        if kind == "end":
            _, which, time, values, via_site = op
            if not begun:
                return True
            span, (track, name, category, keys), split = \
                begun[which % len(begun)]
            trailing = values[split:len(keys)]
            if via_site and may_use_site:
                tracer.site(track, name, category, keys).end(
                    span, time, *trailing)
            else:
                tracer.end(span, time, dict(zip(keys[split:], trailing)))
            return True
        track, name, category, keys = shape = shapes[op[1] % len(shapes)]
        if kind == "begin":
            _, _, time, values, split = op
            split = min(split, len(keys))
            begun.append((tracer.begin(track, name, category, time,
                                       dict(zip(keys[:split], values))),
                          shape, split))
            return True
        *times, values, via_site = op[2:]
        values = values[:len(keys)]
        if via_site and may_use_site:
            getattr(tracer.site(track, name, category, keys), kind)(
                *times, *values)
        else:
            getattr(tracer, kind)(track, name, category, *times,
                                  dict(zip(keys, values)))
        return True
    except ReproError:
        return False


def _times(op):
    """The times a recording operation files."""
    return {"finalize": op[1:2], "complete": op[2:4]}.get(op[0], op[2:3])


def _site_views(tracer):
    return {**_views(tracer), "state": tracer.snapshot_state()}


@settings(max_examples=300, deadline=None)
@given(ops=_SITE_OPS, shape_count=st.integers(1, len(_SHAPES)),
       max_spans=_BOUNDS, strict=st.booleans())
def test_a_site_files_what_the_generic_call_files(ops, shape_count,
                                                  max_spans, strict):
    """Spans recorded through their shape's site (some of them, in any
    interleaving) read back exactly as when every one goes through
    ``begin`` / ``end`` / ``event`` / ``complete`` -- after every step,
    across seals, a site re-joining the next chunk, eviction over a
    chunk edge and strict overflow."""
    shapes = _SHAPES[:shape_count]
    with mock.patch.object(spans_module, "CHUNK_SPANS", CHUNK):
        generic = SpanTracer(max_spans=max_spans, strict=strict)
        mixed = SpanTracer(max_spans=max_spans, strict=strict)
        generic_begun, mixed_begun = [], []
        for step, op in enumerate(ops):
            # Accepted by both, or refused by both at the same call --
            # always refused when it files a time that is not finite.
            accepted = _apply_site(mixed, mixed_begun, op, shapes, True)
            assert accepted \
                == _apply_site(generic, generic_begun, op, shapes, False), \
                (step, op)
            if op[0] != "end" or mixed_begun:
                assert not accepted \
                    or all(map(math.isfinite, _times(op))), (step, op)
            assert _site_views(mixed) == _site_views(generic), (step, op)


def test_a_tracks_stack_is_one_list_for_the_tracers_life():
    """The sites of a track hold its stack, so the tracer may push and
    pop but never rebind it: not at the track's first ``begin`` (the
    site came first), not when ``finalize`` empties it, not when
    eviction lets a whole chunk go."""
    with mock.patch.object(spans_module, "CHUNK_SPANS", CHUNK):
        tracer = SpanTracer(max_spans=CHUNK + 1)
        site = tracer.site("k", "e", "kernel")
        stack = site.stack
        outer = tracer.begin("k", "quantum", "kernel", 0.0)
        assert stack == [outer] and tracer.open_spans("k") == [outer]
        assert tracer.site("k", "other", "kernel", ("a",)).stack is stack
        for index in range(3 * CHUNK):  # seals, then evicts two chunks
            site.event(float(index))
        assert tracer.dropped_spans == 2 * CHUNK - 1
        assert all(span.parent == outer.sid for span in tracer.spans)
        assert tracer.finalize(50.0) == 1 and stack == []
        inner = tracer.begin("k", "quantum", "kernel", 60.0)
        assert stack == [inner]
        assert site.stack is stack is tracer.site("k", "e", "kernel").stack
        site.event(61.0)
        assert tracer.tail(1)[0].parent == inner.sid
