"""Tests for the discrete-event engine."""

import pytest

from repro.errors import SimulationError
from repro.sim.events import EventQueue

NAN = float("nan")
INF = float("inf")


class TestScheduling:
    def test_call_after_advances_clock(self, engine):
        fired = []
        engine.call_after(25.0, lambda: fired.append(engine.now))
        engine.run()
        assert fired == [25.0]
        assert engine.now == 25.0

    def test_call_at_absolute(self, engine):
        fired = []
        engine.call_at(10.0, lambda: fired.append(engine.now))
        engine.run()
        assert fired == [10.0]

    def test_call_soon_runs_at_current_time(self, engine):
        fired = []
        engine.call_after(5.0, lambda: engine.call_soon(
            lambda: fired.append(engine.now)))
        engine.run()
        assert fired == [5.0]

    def test_past_scheduling_rejected(self, engine):
        engine.call_after(10.0, lambda: None)
        engine.run()
        with pytest.raises(SimulationError):
            engine.call_at(5.0, lambda: None)

    def test_negative_delay_rejected(self, engine):
        with pytest.raises(SimulationError):
            engine.call_after(-1.0, lambda: None)

    def test_cancel(self, engine):
        fired = []
        event = engine.call_after(5.0, lambda: fired.append("x"))
        engine.cancel(event)
        engine.run()
        assert fired == []


class TestRun:
    def test_run_until_horizon(self, engine):
        fired = []
        for t in (10.0, 20.0, 30.0):
            engine.call_at(t, lambda t=t: fired.append(t))
        engine.run(until=20.0)
        assert fired == [10.0, 20.0]
        assert engine.now == 20.0
        engine.run()
        assert fired == [10.0, 20.0, 30.0]

    def test_run_until_advances_clock_to_horizon(self, engine):
        engine.call_at(5.0, lambda: None)
        engine.run(until=100.0)
        assert engine.now == 100.0

    def test_chained_events(self, engine):
        fired = []

        def tick(n):
            fired.append((engine.now, n))
            if n > 0:
                engine.call_after(10.0, lambda: tick(n - 1))

        engine.call_soon(lambda: tick(3))
        engine.run()
        assert fired == [(0.0, 3), (10.0, 2), (20.0, 1), (30.0, 0)]

    def test_max_events_guard(self, engine):
        def forever():
            engine.call_soon(forever)

        engine.call_soon(forever)
        with pytest.raises(SimulationError):
            engine.run(max_events=100)

    def test_not_reentrant(self, engine):
        def nested():
            engine.run()

        engine.call_soon(nested)
        with pytest.raises(SimulationError):
            engine.run()

    def test_events_processed_counter(self, engine):
        for t in range(5):
            engine.call_at(float(t), lambda: None)
        engine.run()
        assert engine.events_processed == 5

    def test_pending(self, engine):
        engine.call_at(1.0, lambda: None)
        engine.call_at(2.0, lambda: None)
        assert engine.pending() == 2
        engine.run(until=1.0)
        assert engine.pending() == 1

    def test_same_time_events_fire_in_schedule_order(self, engine):
        fired = []
        for i in range(20):
            engine.call_at(42.0, lambda i=i: fired.append(i))
        engine.run()
        assert fired == list(range(20))


class TestNonFiniteTimes:
    """NaN compares false with everything, so it slipped past the
    negative-delay and in-the-past checks: an event at NaN fired before
    one due at t=1, and a NaN horizon drained the whole agenda (forever,
    on a spinner kernel).  Every entry point refuses it by name."""

    @pytest.mark.parametrize("delay", [NAN, INF, -INF])
    def test_call_after_refuses(self, engine, delay):
        engine.call_at(1.0, lambda: None)
        with pytest.raises(SimulationError, match="call_after delay"):
            engine.call_after(delay, lambda: None)
        assert engine.pending() == 1
        assert engine.snapshot_state()["queue"]["seq"] == 1

    @pytest.mark.parametrize("time", [NAN, INF, -INF])
    def test_call_at_refuses(self, engine, time):
        with pytest.raises(SimulationError, match="call_at time"):
            engine.call_at(time, lambda: None)
        assert engine.pending() == 0

    def test_call_at_still_takes_a_time_just_past_as_now(self, engine):
        engine.call_after(5.0, lambda: None)
        engine.run()
        event = engine.call_at(5.0 - 1e-12, lambda: None)
        assert event.time == 5.0

    def test_run_refuses_a_nan_horizon(self, engine):
        fired = []
        engine.call_at(1.0, lambda: fired.append(1))
        with pytest.raises(SimulationError, match="until"):
            engine.run(until=NAN)
        assert fired == [] and engine.now == 0.0

    def test_run_before_refuses_a_nan_horizon(self, engine):
        engine.call_at(1.0, lambda: None)
        with pytest.raises(SimulationError, match="epoch horizon"):
            engine.run_before(NAN)
        assert engine.events_processed == 0

    @pytest.mark.parametrize("time", [NAN, INF, -1.0])
    def test_event_queue_push_refuses(self, time):
        with pytest.raises(SimulationError, match="finite and non-negative"):
            EventQueue().push(time, lambda: None)
