"""Tests for the discrete-event engine."""

import pytest

from repro.errors import SimulationError
from repro.sim.engine import Engine
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

    def test_max_events_takes_exactly_that_many(self, engine):
        fired = []
        engine.call_at(1.0, lambda: fired.append(1))
        engine.call_at(2.0, lambda: fired.append(2))
        engine.run(max_events=2)
        assert fired == [1, 2] and engine.events_processed == 2

    def test_max_events_raises_before_the_one_past_it(self, engine):
        fired = []
        for t in (1.0, 2.0, 3.0):
            engine.call_at(t, lambda t=t: fired.append(t))
        with pytest.raises(SimulationError, match="max_events=2"):
            engine.run(max_events=2)
        assert fired == [1.0, 2.0] and engine.pending() == 1

    def test_max_events_zero_fires_nothing(self, engine):
        engine.run(max_events=0)
        fired = []
        engine.call_at(1.0, lambda: fired.append(1))
        with pytest.raises(SimulationError, match="max_events=0"):
            engine.run(max_events=0)
        assert fired == [] and engine.events_processed == 0
        assert engine.run_before(1.0, max_events=0) == 0

    @pytest.mark.parametrize("run", ["run", "run_before"])
    def test_a_negative_budget_is_refused(self, engine, run):
        engine.call_at(1.0, lambda: None)
        with pytest.raises(SimulationError,
                           match="max_events must be non-negative"):
            getattr(engine, run)(*(() if run == "run" else (5.0,)),
                                 max_events=-1)
        assert engine.events_processed == 0 and engine.pending() == 1

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

    @pytest.mark.parametrize("horizon", [INF, -INF])
    def test_run_refuses_an_infinite_horizon(self, engine, horizon):
        """``run(until=inf)`` drained the agenda and parked the clock at
        inf: the next ``call_after`` was queued at inf, and the state
        tree could no longer be checksummed."""
        from repro.checkpoint.statetree import tree_checksum

        engine.call_at(1.0, lambda: None)
        with pytest.raises(SimulationError, match="'until' must be finite"):
            engine.run(until=horizon)
        assert engine.now == 0.0 and engine.events_processed == 0
        engine.run(until=2.0)
        engine.call_after(1.0, lambda: None)
        assert len(tree_checksum(engine.snapshot_state())) == 64

    @pytest.mark.parametrize("horizon", [INF, -INF])
    def test_run_before_refuses_an_infinite_horizon(self, engine, horizon):
        engine.call_at(1.0, lambda: None)
        with pytest.raises(SimulationError, match="epoch horizon must be "
                                                  "finite"):
            engine.run_before(horizon)
        assert engine.events_processed == 0

    @pytest.mark.parametrize("time", [NAN, INF, -1.0])
    def test_event_queue_push_refuses(self, time):
        with pytest.raises(SimulationError, match="finite and non-negative"):
            EventQueue().push(time, lambda: None)


class TestContinueInPlace:
    """A callback that fires its own follow-up in place leaves the core
    exactly as scheduling it would: same clock, ``seq``,
    ``events_processed`` and firing order, checked against a twin core
    that always schedules."""

    @staticmethod
    def chain(engine, times, fired, in_place):
        """Fire at each of ``times`` in turn, each from the one before."""

        def hop(index):
            fired.append((index, engine.now))
            if index + 1 < len(times):
                nxt = times[index + 1]
                if in_place and engine.continue_in_place(nxt):
                    return hop(index + 1)
                engine.call_at(nxt, hop, args=(index + 1,))

        engine.call_at(times[0], hop, args=(0,))

    def twins(self, times, *others):
        """The chain on a core that continues in place and on one that
        always schedules, each with ``others`` already on the agenda."""
        cores, logs = [], []
        for in_place in (True, False):
            engine, fired = Engine(), []
            self.chain(engine, times, fired, in_place)
            for time in others:
                engine.call_at(time, fired.append, args=(("other", time),))
            cores.append(engine)
            logs.append(fired)
        return cores, logs

    def test_a_free_run_continues_every_hop(self):
        (fast, slow), (a, b) = self.twins([1.0, 2.0, 3.5, 3.5])
        fast.run(until=10.0)
        slow.run(until=10.0)
        assert a == b == [(0, 1.0), (1, 2.0), (2, 3.5), (3, 3.5)]
        assert fast.snapshot_state() == slow.snapshot_state()

    @pytest.mark.parametrize("other", [2.0, 2.5, 1.0])
    def test_an_event_due_first_or_at_the_same_time_wins(self, other):
        (fast, slow), (a, b) = self.twins([1.0, 2.0, 3.0], other)
        fast.run()
        slow.run()
        assert a == b
        assert fast.snapshot_state() == slow.snapshot_state()

    @pytest.mark.parametrize("until", [1.0, 2.0, 2.5])
    def test_the_horizon_stops_a_continuation(self, until):
        (fast, slow), (a, b) = self.twins([1.0, 2.0, 3.0])
        fast.run(until=until)
        slow.run(until=until)
        assert a == b and fast.pending() == slow.pending() == 1
        assert fast.snapshot_state() == slow.snapshot_state()

    @pytest.mark.parametrize("horizon", [2.0, 2.0 + 1e-9, 3.0])
    def test_the_epoch_horizon_is_strict(self, horizon):
        (fast, slow), (a, b) = self.twins([1.0, 2.0, 3.0])
        assert fast.run_before(horizon) == slow.run_before(horizon)
        assert a == b
        assert fast.snapshot_state() == slow.snapshot_state()

    @pytest.mark.parametrize("budget", [1, 2, 3])
    def test_continuations_count_against_max_events(self, budget):
        (fast, slow), (a, b) = self.twins([1.0, 2.0, 3.0, 4.0])
        for engine in (fast, slow):
            with pytest.raises(SimulationError, match="max_events"):
                engine.run(max_events=budget)
        assert a == b and len(a) == budget
        assert fast.snapshot_state() == slow.snapshot_state()

    def test_never_outside_a_run(self, engine):
        assert not engine.continue_in_place(1.0)
        engine.call_at(1.0, lambda: None)
        engine.step()
        assert not engine.continue_in_place(2.0)
        assert engine.snapshot_state()["queue"]["seq"] == 1
