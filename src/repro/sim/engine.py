"""Discrete-event simulation engine.

The engine owns the virtual clock and the event queue and exposes the
three operations everything else is built from: schedule a callback
after a delay, schedule at an absolute time, and run (optionally until
a horizon).  The simulated microkernel, IPC layer, workloads, and
experiments all advance time exclusively through this engine, so a
whole machine's history is a single deterministic event sequence.

The mechanics live in :class:`LoopCore`, one self-contained event
loop: clock, agenda, sequence counter, and tid allocator.  A classic
:class:`Engine` is exactly one core.  The sharded multicore engine
(:mod:`repro.shard`) instead instantiates one ``LoopCore`` per
simulated machine and interleaves or parallelizes them between epoch
barriers; because every counter a core owns is core-local, the state a
core evolves is a pure function of its own history plus the barrier
payloads it receives -- never of which shard or process executed it.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Any, Callable, Optional, Tuple

from repro.errors import SimulationError
from repro.sim.clock import VirtualClock
from repro.sim.events import Event, EventQueue, new_event

__all__ = ["Engine", "LoopCore"]

_INF = float("inf")


class LoopCore:
    """One deterministic event loop: clock + agenda + local allocators.

    ``core_id`` is the core's stable identity inside a sharded engine
    (canonical merge order); a standalone :class:`Engine` is core 0.
    All counters (event sequence, tid allocation, events processed)
    are local to the core, which is what makes a multi-core universe's
    state independent of shard placement and execution backend.
    """

    def __init__(self, start_time: float = 0.0, core_id: int = 0) -> None:
        self.clock = VirtualClock(start_time)
        self.core_id = core_id
        self._queue = EventQueue()
        self._running = False
        #: Number of events processed (overhead accounting).
        self.events_processed = 0
        # Thread-id allocator.  Scoped to the core (not the process)
        # so a recipe re-executed for checkpoint restore assigns the
        # same tids as the original run: one core, one deterministic
        # universe slice.
        self._next_tid = 0

    # -- time ------------------------------------------------------------------

    @property
    def now(self) -> float:
        """Current virtual time (milliseconds)."""
        return self.clock.now

    def next_tid(self) -> int:
        """Allocate the next thread id in this core's universe."""
        self._next_tid += 1
        return self._next_tid

    # -- scheduling ----------------------------------------------------------------

    def call_at(self, time: float, callback: Callable[..., None],
                label: str = "", args: Tuple[Any, ...] = ()) -> Event:
        """Schedule ``callback(*args)`` at absolute virtual time ``time``.

        ``args`` lets hot callers schedule bound methods directly
        instead of allocating a closure per event.  A time up to 1e-9 ms
        in the past is taken as now; NaN and inf are refused.
        """
        now = self.clock.now
        if not now <= time < _INF:
            if not time < _INF or time < now - 1e-9:
                raise SimulationError(
                    f"call_at time must be finite and not in the past: "
                    f"now={now}, asked={time!r}")
            time = now
        # EventQueue.push, inlined here and in the two below: scheduling
        # is one frame.
        queue = self._queue
        event = new_event(Event)
        event.time = time
        event.seq = seq = queue._seq
        event.callback = callback
        event.args = args
        event.cancelled = False
        event.label = label
        queue._seq = seq + 1
        heappush(queue._heap, (time, seq, event))
        return event

    def call_after(
        self, delay: float, callback: Callable[..., None], label: str = "",
        args: Tuple[Any, ...] = (),
    ) -> Event:
        """Schedule ``callback(*args)`` after ``delay`` milliseconds."""
        if not 0 <= delay < _INF:
            raise SimulationError(
                f"call_after delay must be finite and non-negative, "
                f"got {delay!r}")
        queue = self._queue
        event = new_event(Event)
        event.time = time = self.clock.now + delay
        event.seq = seq = queue._seq
        event.callback = callback
        event.args = args
        event.cancelled = False
        event.label = label
        queue._seq = seq + 1
        heappush(queue._heap, (time, seq, event))
        return event

    def call_soon(self, callback: Callable[..., None], label: str = "",
                  args: Tuple[Any, ...] = ()) -> Event:
        """Schedule ``callback`` at the current instant (after pending
        same-time events already in the queue)."""
        queue = self._queue
        event = new_event(Event)
        event.time = time = self.clock.now
        event.seq = seq = queue._seq
        event.callback = callback
        event.args = args
        event.cancelled = False
        event.label = label
        queue._seq = seq + 1
        heappush(queue._heap, (time, seq, event))
        return event

    def cancel(self, event: Event) -> None:
        """Cancel a previously scheduled event (idempotent)."""
        self._queue.cancel(event)

    # -- execution -------------------------------------------------------------------

    def run(self, until: Optional[float] = None, max_events: Optional[int] = None) -> None:
        """Process events in order until the queue drains.

        ``until`` stops the run once the next event lies strictly beyond
        that horizon (the clock is advanced *to* the horizon so
        measurements over [0, until) are well-defined).  ``max_events``
        is a runaway guard for tests.
        """
        if until is not None and until != until:
            # NaN compares false with every event time: the whole
            # agenda would fire, forever on a spinner kernel.
            raise SimulationError("run horizon 'until' must not be NaN")
        self._fire_due(None if until is None else until + 1e-9, False,
                       max_events, "run")
        if until is not None:
            self.clock.advance_to(until)

    def _fire_due(self, limit: Optional[float], strict: bool,
                  max_events: Optional[int], what: str) -> int:
        """Fire, in order, every live event up to ``limit`` -- strictly
        before it when ``strict``, the whole agenda when None.

        Reads the agenda's heap directly: one pop per event, taken only
        once the head is known to be live and due.  The clock hop is
        inline; it needs no backwards check, since nothing is scheduled
        before now and the heap pops in time order.  An event left just
        under a barrier (``run_before``'s 1e-9 ms margin) fires without
        moving the clock back.
        """
        if self._running:
            raise SimulationError("engine is not reentrant")
        self._running = True
        processed = 0
        heap = self._queue._heap
        clock = self.clock
        try:
            while heap:
                time, _, event = heap[0]
                if event.cancelled:
                    heappop(heap)
                    continue
                if limit is not None and (time >= limit if strict
                                          else time > limit):
                    break
                heappop(heap)
                if time > clock.now:
                    clock.now = time
                event.fire()
                self.events_processed += 1
                processed += 1
                if max_events is not None and processed >= max_events:
                    raise SimulationError(
                        f"{what} exceeded max_events={max_events}; "
                        f"likely a livelock"
                    )
        finally:
            self._running = False
        return processed

    # -- epoch execution (sharded engine) ------------------------------------------

    def peek_time(self) -> Optional[float]:
        """Time of the core's earliest live event (None when drained)."""
        return self._queue.peek_time()

    def step(self) -> bool:
        """Fire exactly the next live event; False when the core is idle.

        The single-loop reference driver of :mod:`repro.shard` uses
        this to interleave several cores through one loop while each
        core still advances its *own* clock and counters.
        """
        event = self._queue.pop()
        if event is None:
            return False
        clock = self.clock
        if event.time > clock.now:
            clock.now = event.time
        event.fire()
        self.events_processed += 1
        return True

    def run_before(self, horizon: float, max_events: Optional[int] = None) -> int:
        """Process every event strictly before ``horizon`` (exclusive).

        The epoch body of the sharded engine: events at exactly the
        barrier time belong to the *next* epoch (after barrier payloads
        are applied), so the window is half-open.  The clock is NOT
        advanced to the horizon -- :meth:`advance_clock` does that at
        the barrier.  Returns the number of events fired.
        """
        if horizon != horizon:
            raise SimulationError("epoch horizon must not be NaN")
        return self._fire_due(horizon - 1e-9, True, max_events, "epoch")

    def advance_clock(self, time: float) -> None:
        """Advance the core clock to a barrier instant (monotonic)."""
        self.clock.advance_to(time)

    def pending(self) -> int:
        """Number of live events still queued."""
        return len(self._queue)

    def snapshot_state(self) -> dict:
        """Typed state tree for checkpointing (see ``repro.checkpoint``)."""
        return {
            "clock_ms": self.clock.now,
            "events_processed": self.events_processed,
            "next_tid": self._next_tid,
            "queue": self._queue.snapshot_state(),
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<{type(self).__name__} core={self.core_id} "
                f"now={self.clock.now:.3f}ms pending={self.pending()}>")


class Engine(LoopCore):
    """Deterministic discrete-event executor over a virtual clock.

    Exactly one :class:`LoopCore`: the classic single-loop engine every
    recipe, kernel, and experiment drives.  The sharded engine composes
    many cores instead; see :mod:`repro.shard`.
    """

    def __init__(self, start_time: float = 0.0) -> None:
        super().__init__(start_time=start_time, core_id=0)
