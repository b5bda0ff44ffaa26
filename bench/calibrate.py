"""Clock normalisation: a fixed reference loop run between slices.

The reference host's CPU clock moves between about 2.1 and 3.5 GHz in
plateaus of several seconds (other tenants, turbo budget), which moves
every wall-clock reading by up to 1.6x whatever the code under test
does.  A median over a 10 s measurement does not remove that; a
reference of known work measured *at the same moments* does: the timed
run is driven in slices, one chunk of this loop runs before each, and
the run's wall time is scaled by ``nominal / measured`` reference
time.  Set-up, which cannot be sliced, is bracketed by chunks instead.  Host seconds are then seconds of a host that runs the loop at
:data:`NOMINAL_US_PER_EVENT` throughout, and repeat within a few
percent where raw seconds differ by 10-40 %.

The loop is a miniature of the simulator's own instruction mix -- a
heap of ``__slots__`` events ordered by ``__lt__``, bound-method
callbacks, a dict of float accumulators, a Lehmer step -- because an
arithmetic spin (``repro.perf``'s ``calibration.spin``) slows by a
different factor than pointer-chasing code and cancels nothing.  It is
part of the benchmark, not of the program: it must never change, or
every normalised number moves with it.
"""

from __future__ import annotations

import heapq
import time
from typing import Any, Callable, List, Tuple

__all__ = ["EVENTS_PER_CHUNK", "NOMINAL_US_PER_EVENT", "Reference"]

#: Events per chunk: about 4 ms, long against timer resolution, short
#: against a slice.
EVENTS_PER_CHUNK = 2_000

#: The speed readings are normalised to: the reference host's own, on
#: its middle clock plateau.
NOMINAL_US_PER_EVENT = 2.0


class _Event:
    __slots__ = ("time", "seq", "callback", "args")

    def __init__(self, time: float, seq: int, callback: Callable[..., None],
                 args: Tuple[Any, ...]) -> None:
        self.time = time
        self.seq = seq
        self.callback = callback
        self.args = args

    def __lt__(self, other: "_Event") -> bool:
        if self.time != other.time:
            return self.time < other.time
        return self.seq < other.seq


class Reference:
    """The reference loop; constant footprint, deterministic work."""

    def __init__(self) -> None:
        self._heap: List[_Event] = []
        self._seq = 0
        self._now = 0.0
        self._sums: dict = {}
        self._state = 12345
        #: Host seconds spent in chunks, and how many there were.
        self.seconds = 0.0
        self.chunks = 0
        for index in range(64):
            self._schedule(float(index), self._tick, index)
        self._run(EVENTS_PER_CHUNK)  # warm: caches, dict at full size

    def _schedule(self, time: float, callback: Callable[..., None],
                  *args: Any) -> None:
        self._seq += 1
        heapq.heappush(self._heap, _Event(time, self._seq, callback, args))

    def _tick(self, key: int) -> None:
        self._state = (self._state * 16807) % 2147483647
        sums = self._sums
        sums[key] = sums.get(key, 0.0) + self._state * 1e-9
        self._schedule(self._now + 1.0 + self._state % 7, self._tick,
                       (key * 31 + 7) % 997)

    def _run(self, events: int) -> None:
        heap = self._heap
        for _ in range(events):
            event = heapq.heappop(heap)
            self._now = event.time
            event.callback(*event.args)

    def chunks_of(self, count: int) -> None:
        """Run ``count`` timed chunks."""
        start = time.perf_counter()
        self._run(count * EVENTS_PER_CHUNK)
        self.seconds += time.perf_counter() - start
        self.chunks += count

    def scale(self) -> float:
        """Factor from measured to normalised host seconds so far."""
        nominal = self.chunks * EVENTS_PER_CHUNK * NOMINAL_US_PER_EVENT * 1e-6
        return nominal / self.seconds
