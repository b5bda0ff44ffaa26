"""Tests for the event queue: ordering, cancellation, bookkeeping."""

import pytest

from repro.errors import SimulationError
from repro.sim.events import EventQueue


class TestEventQueue:
    def test_pops_in_time_order(self):
        queue = EventQueue()
        fired = []
        queue.push(3.0, lambda: fired.append("c"))
        queue.push(1.0, lambda: fired.append("a"))
        queue.push(2.0, lambda: fired.append("b"))
        while True:
            event = queue.pop()
            if event is None:
                break
            event.callback()
        assert fired == ["a", "b", "c"]

    def test_same_time_fifo(self):
        # Events at one instant fire in schedule order (determinism).
        queue = EventQueue()
        order = []
        for i in range(10):
            queue.push(5.0, lambda i=i: order.append(i))
        while queue.pop() is not None:
            pass
        events = EventQueue()
        for i in range(10):
            events.push(5.0, lambda i=i: order.append(i))
        event = events.pop()
        first_seq = event.seq
        event2 = events.pop()
        assert event2.seq > first_seq

    def test_negative_time_rejected(self):
        with pytest.raises(SimulationError):
            EventQueue().push(-1.0, lambda: None)

    def test_cancelled_event_skipped(self):
        queue = EventQueue()
        keep = queue.push(1.0, lambda: None, label="keep")
        drop = queue.push(0.5, lambda: None, label="drop")
        queue.cancel(drop)
        assert queue.pop() is keep
        assert queue.pop() is None

    def test_cancel_is_idempotent_for_len(self):
        queue = EventQueue()
        event = queue.push(1.0, lambda: None)
        queue.push(2.0, lambda: None)
        queue.cancel(event)
        queue.cancel(event)
        assert len(queue) == 1

    def test_peek_time_skips_cancelled(self):
        queue = EventQueue()
        first = queue.push(1.0, lambda: None)
        queue.push(2.0, lambda: None)
        queue.cancel(first)
        assert queue.peek_time() == 2.0

    def test_empty_queue_is_falsy(self):
        queue = EventQueue()
        assert not queue
        queue.push(1.0, lambda: None)
        assert queue

    def test_len_counts_live_events(self):
        queue = EventQueue()
        events = [queue.push(float(i), lambda: None) for i in range(5)]
        assert len(queue) == 5
        queue.cancel(events[2])
        assert len(queue) == 4
        queue.pop()
        assert len(queue) == 3

    def test_cancelling_a_fired_event_leaves_the_count_alone(self):
        """A second counter beside the heap went negative here and
        ``pending()`` said 0 with one event still queued."""
        from repro.sim.engine import Engine

        engine = Engine()
        fired = engine.call_at(1.0, lambda: None)
        engine.call_at(5.0, lambda: None)
        engine.run(until=2.0)
        engine.cancel(fired)
        engine.cancel(fired)
        assert engine.pending() == 1
        assert engine.snapshot_state()["queue"]["live"] == 1
        engine.run()
        assert engine.pending() == 0 and engine.events_processed == 2

    def test_labels_preserved(self):
        queue = EventQueue()
        event = queue.push(1.0, lambda: None, label="dispatch")
        assert event.label == "dispatch"
