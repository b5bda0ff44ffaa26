"""A running CPU fires its own next compute completion and next dispatch
in place (``LoopCore.continue_in_place``) when nothing else is due
first; ``step()`` never does.  The same kernel driven both ways must be
the same history: every state tree -- queue ``seq`` and ``pending``,
``events_processed``, ``dispatch_pending`` -- at every stop, and the
same dispatch stream."""

from __future__ import annotations

import math

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.analysis.sanitizer import InvariantSanitizer
from repro.core.prng import ParkMillerPRNG
from repro.core.tickets import Ledger
from repro.errors import SimulationError
from repro.kernel.ipc import Port
from repro.kernel.kernel import Kernel
from repro.kernel.syscalls import Compute, Receive, Send, Sleep, YieldCPU
from repro.perf import count_work
from repro.schedulers.lottery_policy import LotteryPolicy
from repro.sim.engine import Engine
from tests.conftest import make_lottery_kernel, spin_body

QUANTA = (10.0, 7.5, 100.0 / 3)
#: Compute chunks as multiples of the quantum: exact multiples and
#: chunk == quantum end a segment exactly on a quantum boundary.
FACTORS = (1.0, 2.0, 3.0, 0.5, 0.25, 1.5, 0.3, 0.7)
KINDS = ("compute", "yield", "sleep", "send", "receive")
HORIZON = 400.0


class Log:
    """Every recorder event, in order: the dispatch stream and more."""

    def __init__(self) -> None:
        self.events = []

    def on_dispatch(self, thread, now):
        self.events.append(("dispatch", thread.name, now))

    def on_cpu(self, thread, start, run):
        self.events.append(("cpu", thread.name, start, run))

    def on_block(self, thread, now):
        self.events.append(("block", thread.name, now))

    def on_wake(self, thread, now):
        self.events.append(("wake", thread.name, now))

    def on_exit(self, thread, now):
        self.events.append(("exit", thread.name, now))


def _body(kind, chunk, port, index):
    def body(ctx):
        while True:
            if kind == "receive":
                yield Receive(port)
            yield Compute(chunk)
            if kind == "yield":
                yield YieldCPU()
            elif kind == "sleep":
                # A zero sleep puts a wakeup at the agenda head at this
                # very instant: the next dispatch must not run in place.
                yield Sleep(chunk if index % 2 else 0.0)
            elif kind == "send":
                yield Send(port, index)
    return body


def build(spec):
    ledger = Ledger()
    engine = Engine()
    kernel = Kernel(engine, LotteryPolicy(ledger,
                                          prng=ParkMillerPRNG(spec["seed"])),
                    ledger=ledger, quantum=spec["quantum"],
                    context_switch_cost=spec["switch"])
    log = kernel.attach_recorder(Log())
    port = Port(kernel, "port")
    for index, (kind, factor, tickets) in enumerate(spec["threads"]):
        kernel.spawn(_body(kind, factor * spec["quantum"], port, index),
                     f"{kind}{index}", tickets=float(tickets))
    return engine, kernel, log


def state(engine, kernel):
    return {"engine": engine.snapshot_state(),
            "kernel": kernel.snapshot_state(),
            "ledger": kernel.ledger.snapshot_state()}


def step_until(engine, until):
    """``run(until)`` one event at a time, through ``step()``."""
    while True:
        time = engine.peek_time()
        if time is None or time > until + 1e-9:
            break
        engine.step()
    engine.advance_clock(until)


def stops(spec):
    times = [k * spec["quantum"] if isinstance(k, int) else k
             for k in spec["stops"]]
    return sorted(t for t in times if t <= HORIZON) + [HORIZON]


kernels = st.fixed_dictionaries({
    "seed": st.integers(min_value=1, max_value=2**31 - 2),
    "quantum": st.sampled_from(QUANTA),
    "switch": st.sampled_from((0.0, 0.0, 0.5, 2.0)),
    "threads": st.lists(st.tuples(st.sampled_from(KINDS),
                                  st.sampled_from(FACTORS),
                                  st.integers(min_value=1, max_value=20)),
                        min_size=1, max_size=5),
    # An int k stops at k quanta (a segment's very end); a float
    # anywhere, usually mid-segment.
    "stops": st.lists(st.one_of(st.integers(min_value=0, max_value=40),
                                st.floats(min_value=0.0, max_value=HORIZON)),
                      max_size=6),
})


class TestAgendaVersusInPlace:
    @given(kernels)
    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_run_splits_match_step_by_step(self, spec):
        engine_a, kernel_a, log_a = build(spec)
        engine_b, kernel_b, log_b = build(spec)
        for until in stops(spec):
            engine_a.run(until=until)
            step_until(engine_b, until)
            assert state(engine_a, kernel_a) == state(engine_b, kernel_b)
        assert log_a.events == log_b.events
        assert kernel_a.dispatch_count > 0

    def test_a_same_time_event_at_the_head_goes_first(self):
        """A completion due at exactly the time of an event already on
        the agenda is the later of the two (``seq``): it goes through
        the agenda, and the earlier event sees the segment unfinished."""
        engine, kernel, _ = build({"seed": 5, "quantum": 10.0,
                                   "switch": 0.0, "threads": []})
        thread = kernel.spawn(spin_body(4.0), "spin", tickets=1.0)
        seen = []
        engine.call_at(8.0, lambda: seen.append(
            (thread.cpu_time, kernel._inflight.label)))
        engine.run(until=9.0)
        assert seen == [(4.0, "compute")]
        assert thread.cpu_time == 8.0
        twin, twin_kernel, _ = build({"seed": 5, "quantum": 10.0,
                                      "switch": 0.0, "threads": []})
        twin_kernel.spawn(spin_body(4.0), "spin", tickets=1.0)
        twin.call_at(8.0, lambda: None)
        step_until(twin, 9.0)
        assert state(engine, kernel) == state(twin, twin_kernel)


def agenda_pushes(kernel, until):
    """Events the run puts on the agenda, and the dispatches it makes."""
    start = kernel.dispatch_count
    calls, _ = count_work(kernel.run_until, until, within="sim")
    pushes = calls["call_at"] + calls["call_after"] + calls["call_soon"]
    return pushes, kernel.dispatch_count - start


def spinner_kernel():
    kernel = make_lottery_kernel(seed=3, quantum=10.0, use_tree=True)
    kernel.invariant_hooks.clear()
    for index in range(200):
        kernel.spawn(spin_body(7.0), f"spin{index}",
                     tickets=float(1 + index % 13))
    kernel.run_until(500 * 10.0)
    return kernel


class TestTheShippedPathIsTheCheckedPath:
    def test_only_the_stop_puts_a_spinner_on_the_agenda(
            self, race_tracker_off):
        """One push a run: the segment the stop cuts."""
        pushes, dispatches = agenda_pushes(spinner_kernel(), 2_500 * 10.0)
        assert (pushes, dispatches) == (1, 2_000)

    def test_hooks_and_tracker_keep_the_in_place_path(self, race_tracker):
        """The invariant sanitizer's hooks and an armed race tracker see
        every quantum, and the agenda gets exactly the pushes it gets
        with both off."""
        race_tracker.deactivate()
        bare = agenda_pushes(spinner_kernel(), 700 * 10.0)
        race_tracker.activate()
        kernel = spinner_kernel()
        sanitizer = InvariantSanitizer().attach(kernel)
        checks = race_tracker.checks
        assert agenda_pushes(kernel, 700 * 10.0) == bare == (1, 200)
        assert sanitizer.checks_run == 200
        assert race_tracker.checks > checks

    def test_a_context_switch_goes_through_the_agenda(self, race_tracker_off):
        _, kernel, _ = build({"seed": 2, "quantum": 10.0,
                              "switch": 1.0, "threads": []})
        kernel.spawn(spin_body(10.0), "spin", tickets=1.0)
        kernel.run_until(55.0)
        pushes, dispatches = agenda_pushes(kernel, 110.0)
        assert (pushes, dispatches) == (5, 5)
        assert math.isclose(kernel.threads[0].cpu_time, 100.0)


@pytest.mark.parametrize("horizon", [math.inf, -math.inf])
def test_kernel_run_until_refuses_an_infinite_horizon(horizon):
    kernel = make_lottery_kernel()
    kernel.spawn(spin_body(), "spin", tickets=1.0)
    with pytest.raises(SimulationError, match="'until' must be finite"):
        kernel.run_until(horizon)
    assert kernel.now == 0.0 and kernel.dispatch_count == 0
