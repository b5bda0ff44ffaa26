"""SpanTracer: nesting, bounds, finalization."""

import json
import math

import pytest

from repro.errors import ReproError
from repro.telemetry.exporters import export_chrome, export_jsonl
from repro.telemetry.spans import Span, SpanTracer


class TestNesting:
    def test_child_gets_parent_sid(self):
        tracer = SpanTracer()
        outer = tracer.begin("k", "quantum", "kernel", 0.0)
        inner = tracer.event("k", "lottery.draw", "scheduler", 0.0)
        assert inner.parent == outer.sid
        tracer.end(outer, 20.0)
        assert outer.parent is None

    def test_nesting_is_per_track(self):
        tracer = SpanTracer()
        tracer.begin("a", "quantum", "kernel", 0.0)
        other = tracer.event("b", "lottery.draw", "scheduler", 0.0)
        assert other.parent is None

    def test_stack_pops_on_end(self):
        tracer = SpanTracer()
        outer = tracer.begin("k", "outer", "kernel", 0.0)
        inner = tracer.begin("k", "inner", "kernel", 1.0)
        tracer.end(inner, 2.0)
        tracer.end(outer, 3.0)
        assert tracer.open_spans() == []
        # Completion order: inner first.
        assert [s.name for s in tracer.spans] == ["inner", "outer"]

    def test_complete_spans_do_not_nest(self):
        tracer = SpanTracer()
        tracer.begin("k", "quantum", "kernel", 0.0)
        rpc = tracer.complete("k", "ipc.rpc", "ipc", 5.0, 50.0)
        assert rpc.parent is None

    def test_sids_are_sequential(self):
        tracer = SpanTracer()
        sids = [tracer.event("k", "e", "kernel", float(i)).sid
                for i in range(5)]
        assert sids == [0, 1, 2, 3, 4]


class TestBounds:
    def test_drop_oldest_beyond_max(self):
        tracer = SpanTracer(max_spans=3)
        for i in range(5):
            tracer.event("k", f"e{i}", "kernel", float(i))
        assert len(tracer) == 3
        assert tracer.dropped_spans == 2
        assert [s.name for s in tracer.spans] == ["e2", "e3", "e4"]

    def test_tail_and_completed_count_survive_eviction(self):
        tracer = SpanTracer(max_spans=3)
        assert tracer.completed == 0 and tracer.tail(2) == []
        tracer.begin("k", "open", "kernel", 0.0)  # open spans do not count
        for i in range(5):
            tracer.event("k", f"e{i}", "kernel", float(i))
        assert tracer.completed == 5
        assert [s.name for s in tracer.tail(2)] == ["e3", "e4"]
        assert tracer.tail(0) == []
        assert tracer.tail(9) == tracer.spans

    def test_strict_mode_raises_instead(self):
        tracer = SpanTracer(max_spans=1, strict=True)
        tracer.event("k", "e0", "kernel", 0.0)
        with pytest.raises(ReproError, match="overflow"):
            tracer.event("k", "e1", "kernel", 1.0)

    def test_nonpositive_bound_rejected(self):
        with pytest.raises(ReproError):
            SpanTracer(max_spans=0)


class TestEndValidation:
    def test_negative_duration_rejected(self):
        tracer = SpanTracer()
        span = tracer.begin("k", "quantum", "kernel", 10.0)
        with pytest.raises(ReproError, match="end before it started"):
            tracer.end(span, 5.0)

    def test_double_end_rejected(self):
        tracer = SpanTracer()
        span = tracer.begin("k", "quantum", "kernel", 0.0)
        tracer.end(span, 1.0)
        with pytest.raises(ReproError, match="already ended"):
            tracer.end(span, 2.0)

    def test_complete_negative_duration_rejected(self):
        tracer = SpanTracer()
        with pytest.raises(ReproError, match="negative duration"):
            tracer.complete("k", "ipc.rpc", "ipc", 10.0, 5.0)


    def test_a_time_that_is_not_a_number_is_refused_by_span_name(self):
        tracer = SpanTracer()
        nan = math.nan
        with pytest.raises(ReproError, match="'ipc.rpc'.*end=nan"):
            tracer.complete("k", "ipc.rpc", "ipc", 1.0, nan)
        with pytest.raises(ReproError, match="'ipc.rpc'.*start=nan"):
            tracer.complete("k", "ipc.rpc", "ipc", nan, 1.0)
        with pytest.raises(ReproError, match="'ipc.send'.*time=nan"):
            tracer.event("k", "ipc.send", "ipc", nan, {"port": "p"})
        with pytest.raises(ReproError, match="'quantum'.*start=nan"):
            tracer.begin("k", "quantum", "kernel", nan)
        span = tracer.begin("k", "quantum", "kernel", 0.0)
        with pytest.raises(ReproError, match="'quantum'.*end=nan"):
            tracer.end(span, nan)
        # Each refused whole: no sid taken, nothing buffered, the one
        # begun span still open -- and what is exported stays JSON.
        assert tracer.snapshot_state()["next_sid"] == 1
        assert len(tracer) == 0 and tracer.open_spans() == [span]
        tracer.end(span, 1.0)
        for line in export_jsonl(tracer).splitlines():
            json.loads(line, parse_constant=pytest.fail)

    #: Each writer of a time, and what its refusal names.
    _WRITERS = {
        "begin": (lambda t, x: t.begin("k", "quantum", "kernel", x),
                  "'quantum'.*start={}"),
        "end": (lambda t, x: t.end(t.begin("k", "quantum", "kernel", 0.0),
                                   x), "'quantum'.*end={}"),
        "event": (lambda t, x: t.event("k", "ipc.send", "ipc", x),
                  "'ipc.send'.*time={}"),
        "complete start": (
            lambda t, x: t.complete("k", "ipc.rpc", "ipc", x, 1.0),
            "'ipc.rpc'.*start={}"),
        "complete end": (
            lambda t, x: t.complete("k", "ipc.rpc", "ipc", 1.0, x),
            "'ipc.rpc'.*end={}"),
        "site event": (lambda t, x: t.site("k", "ipc.send", "ipc").event(x),
                       "'ipc.send'.*time={}"),
        "site complete": (
            lambda t, x: t.site("k", "ipc.rpc", "ipc").complete(x, x),
            "'ipc.rpc'.*start={}"),
        "site end": (
            lambda t, x: t.site("k", "quantum", "kernel").end(
                t.begin("k", "quantum", "kernel", 0.0), x),
            "'quantum'.*end={}"),
        "finalize": (lambda t, x: t.finalize(x), "finalize.*time={}"),
    }

    @pytest.mark.parametrize("time", [math.inf, -math.inf],
                             ids=["inf", "-inf"])
    @pytest.mark.parametrize("writer", list(_WRITERS))
    def test_an_infinite_time_is_refused_by_span_name(self, writer, time):
        """JSON has no infinity: an accepted one would export as
        ``Infinity``, which parsers and the trace viewer reject."""
        tracer = SpanTracer()
        tracer.begin("k", "outer", "kernel", -5.0)
        write, named = self._WRITERS[writer]
        with pytest.raises(ReproError, match=named.format(f"{time:g}")):
            write(tracer, time)
        assert len(tracer) == 0
        tracer.finalize(9.0)
        for line in export_jsonl(tracer).splitlines():
            json.loads(line, parse_constant=pytest.fail)
        assert "Infinity" not in export_chrome(tracer)

    def test_a_span_ends_only_on_the_tracer_that_began_it(self):
        ours, theirs = SpanTracer(), SpanTracer()
        span = ours.begin("k", "quantum", "kernel", 0.0)
        # Same track, same sid, equal field for field -- but not ours.
        theirs.begin("k", "quantum", "kernel", 0.0)
        with pytest.raises(ReproError, match="span 0 .'quantum'. is not open"):
            theirs.end(span, 5.0, {"outcome": "block"})
        # Refused whole on both sides.
        assert span.end is None and span.attrs == {}
        assert len(theirs) == 0 and len(theirs.open_spans()) == 1
        assert ours.open_spans() == [span]
        ours.end(span, 5.0)
        assert ours.finalize(9.0) == 0 and len(ours) == 1

    def test_out_of_order_end_is_still_accepted(self):
        tracer = SpanTracer()
        outer = tracer.begin("k", "outer", "kernel", 0.0)
        inner = tracer.begin("k", "inner", "kernel", 1.0)
        tracer.end(outer, 2.0)
        assert tracer.open_spans() == [inner]
        tracer.end(inner, 3.0)
        assert [s.name for s in tracer.spans] == ["outer", "inner"]


class TestFinalize:
    def test_finalize_closes_all_open_spans(self):
        tracer = SpanTracer()
        tracer.begin("a", "quantum", "kernel", 0.0)
        tracer.begin("a", "inner", "kernel", 5.0)
        tracer.begin("b", "quantum", "kernel", 2.0)
        closed = tracer.finalize(100.0)
        assert closed == 3
        assert tracer.open_spans() == []
        assert all(s.end == 100.0 for s in tracer.spans)
        assert all(s.attrs.get("finalized") for s in tracer.spans)


class TestSpanValue:
    def test_round_trip_dict(self):
        span = Span(sid=7, parent=2, track="k", name="quantum",
                    category="kernel", start=1.0, end=21.0,
                    attrs={"thread": "w0"})
        assert Span.from_dict(span.to_dict()) == span

    def test_duration_and_instant(self):
        tracer = SpanTracer()
        instant = tracer.event("k", "e", "kernel", 3.0)
        assert instant.instant and instant.duration == 0.0
        span = tracer.begin("k", "q", "kernel", 0.0)
        assert span.duration == 0.0  # open
        tracer.end(span, 20.0)
        assert span.duration == 20.0 and not span.instant

    def test_counts_by_category_and_name(self):
        tracer = SpanTracer()
        tracer.event("k", "a", "kernel", 0.0)
        tracer.event("k", "a", "kernel", 1.0)
        tracer.event("k", "b", "ipc", 2.0)
        assert tracer.counts() == {("kernel", "a"): 2, ("ipc", "b"): 1}

    def test_snapshot_state_summarizes(self):
        tracer = SpanTracer(max_spans=10)
        tracer.begin("k", "q", "kernel", 0.0)
        tracer.event("k", "e", "kernel", 1.0)
        state = tracer.snapshot_state()
        assert state["completed"] == 1
        assert state["open"] == {"k": 1}
        assert state["next_sid"] == 2
