"""Priority event queue with stable ordering and cancellation.

Events fire in (time, sequence) order: two events scheduled for the
same instant fire in the order they were scheduled.  That determinism
matters -- the experiments assert exact reproducibility for a given
PRNG seed, which a tie-broken-by-hash heap would silently destroy.

Cancellation is O(1) lazy: a cancelled event stays in the heap but is
skipped when popped.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.errors import SimulationError

__all__ = ["Event", "EventQueue", "new_event"]

#: Allocates an :class:`Event` with no slot set (``object.__new__``: C,
#: no frame); the caller stores every slot.
new_event = object.__new__

_INF = float("inf")


class Event:
    """A scheduled callback; hold the reference to be able to cancel.

    ``args`` are positional arguments delivered to ``callback`` at fire
    time; passing them here instead of closing over them lets hot paths
    (the kernel dispatch loop) schedule bound methods without allocating
    a lambda per event.  Events order themselves by ``(time, seq)``, so
    the queue's heap holds Event objects directly -- no wrapper tuple
    per entry.  ``label`` is a diagnostic tag shown in traces
    ("dispatch", "compute", ...).

    There is no ``__init__``: a scheduler allocates with
    ``new_event(Event)`` and stores all six slots itself, so scheduling
    an event opens no Python frame beyond the scheduler's own
    (:meth:`EventQueue.push` and ``LoopCore.call_*``).
    """

    __slots__ = ("time", "seq", "callback", "args", "cancelled", "label")

    def cancel(self) -> None:
        """Prevent this event from firing (idempotent)."""
        self.cancelled = True

    def fire(self) -> None:
        """Invoke the callback with the staged arguments."""
        self.callback(*self.args)

    def __lt__(self, other: "Event") -> bool:
        if self.time != other.time:
            return self.time < other.time
        return self.seq < other.seq

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "cancelled" if self.cancelled else "pending"
        return f"<Event t={self.time:.3f} {self.label or self.callback!r} {state}>"


class EventQueue:
    """Binary-heap event queue keyed by (time, sequence)."""

    def __init__(self) -> None:
        # Heap of Event objects ordered by Event.__lt__ (time, seq) --
        # identical firing order to the historical (time, seq, event)
        # tuples without allocating a wrapper per push.
        self._heap: List[Event] = []
        # Plain integer counter (not itertools.count) so the scheduling
        # sequence position is part of the observable state tree.
        self._seq = 0

    def push(self, time: float, callback: Callable[..., None],
             label: str = "", args: Tuple[Any, ...] = ()) -> Event:
        """Schedule ``callback(*args)`` at absolute virtual ``time``."""
        if not 0 <= time < _INF:
            raise SimulationError(
                f"event time must be finite and non-negative, got {time!r}")
        event = new_event(Event)
        event.time = time
        event.seq = self._seq
        event.callback = callback
        event.args = args
        event.cancelled = False
        event.label = label
        self._seq += 1
        heapq.heappush(self._heap, event)
        return event

    def pop(self) -> Optional[Event]:
        """Remove and return the earliest live event, or None if empty."""
        while self._heap:
            event = heapq.heappop(self._heap)
            if not event.cancelled:
                return event
        return None

    def peek_time(self) -> Optional[float]:
        """Time of the earliest live event without removing it."""
        while self._heap:
            event = self._heap[0]
            if event.cancelled:
                heapq.heappop(self._heap)
                continue
            return event.time
        return None

    def cancel(self, event: Event) -> None:
        """Cancel a scheduled event (idempotent; harmless once it has fired)."""
        event.cancel()

    def __len__(self) -> int:
        return sum(not event.cancelled for event in self._heap)

    def __bool__(self) -> bool:
        return self.peek_time() is not None

    def snapshot_state(self) -> Dict[str, Any]:
        """Typed state tree for checkpointing (see ``repro.checkpoint``).

        Callbacks are closures and cannot be serialized; the tree
        records the queue *shape* -- every live (time, seq, label)
        descriptor plus the sequence counter -- which is what restore
        verification compares after rebuilding a run by re-execution.
        """
        pending = [
            {"time": event.time, "seq": event.seq, "label": event.label}
            for event in sorted(self._heap)
            if not event.cancelled
        ]
        return {"seq": self._seq, "live": len(pending), "pending": pending}
