"""Kernel activity recorders: the event surface and its sinks.

The kernel reports dispatch/CPU/block/wake/exit events to an optional
sink (``recorder=None`` is the null sink).
:data:`RECORDER_EVENT_SURFACE` is the seam every sink implements --
:class:`KernelRecorder` (per-thread CPU accounting),
:class:`~repro.checkpoint.replay.ReplayRecorder` (dispatch streams),
the :mod:`repro.telemetry` probe and the serving arena's latency probe
all speak it, and :class:`RecorderMux` holds several of them for one
kernel so a single run can be traced, accounted, and replayed
simultaneously.

New sinks must declare the **full** event surface
(:data:`RECORDER_EVENT_SURFACE`) and register their dotted class path
in :data:`RECORDER_SINKS`; a tier-1 test checks that each registered
class defines every event method itself, so a protocol extension cannot
leave a sink silently deaf to a new event kind.  A sink that only cares
about some events implements the rest as no-ops and names them in its
class's ``ignored_events`` (a tuple of event names, which imports
nothing): the kernel resolves each event when its sinks are wired
(:func:`~repro.kernel.kernel.resolve_recorder_events`), so an ignored
event costs the sink nothing, and an event no sink listens to costs
the kernel one attribute test.
"""

from __future__ import annotations

from typing import (Any, Dict, FrozenSet, List, Optional, Tuple,
                    TYPE_CHECKING)

from repro.errors import ReproError
from repro.kernel.kernel import RECORDER_EVENTS, resolve_recorder_events
from repro.metrics.counters import WindowedCounter

if TYPE_CHECKING:  # pragma: no cover
    from repro.kernel.thread import Thread

__all__ = ["KernelRecorder", "RecorderMux", "RECORDER_EVENT_SURFACE",
           "RECORDER_SINKS"]

#: The full event surface of the recorder protocol, in the order the
#: kernel emits them (:data:`repro.kernel.kernel.RECORDER_EVENTS`).
#: RecorderMux validates sinks against this list at attach time.
RECORDER_EVENT_SURFACE: Tuple[str, ...] = RECORDER_EVENTS

#: Dotted class paths of the known recorder sinks.  Every class listed
#: here must *define* each method in :data:`RECORDER_EVENT_SURFACE`
#: (structural inheritance is not enough -- a sink that forgets an event
#: must fail ``test_known_sinks_satisfy_the_protocol``, not inherit a
#: silent no-op).  Add new sinks here when introducing them.
RECORDER_SINKS: FrozenSet[str] = frozenset({
    "repro.metrics.recorder.KernelRecorder",
    "repro.metrics.recorder.RecorderMux",
    "repro.checkpoint.replay.ReplayRecorder",
    "repro.telemetry.probe.KernelProbe",
    "repro.serving.slo_controller.ClassLatencyProbe",
})


class KernelRecorder:
    """Accumulates per-thread CPU time series and scheduling latencies."""

    def __init__(self) -> None:
        #: tid -> CPU-milliseconds counter indexed by virtual time.
        self.cpu: Dict[int, WindowedCounter] = {}
        #: tid -> dispatch count.
        self.dispatches: Dict[int, int] = {}
        #: (time, tid) dispatch log (bounded use: fairness analyses).
        self.dispatch_log: List[Tuple[float, int]] = []
        #: tid -> scheduling latencies (runnable -> dispatched), ms.
        self.latencies: Dict[int, List[float]] = {}
        self.blocks: Dict[int, int] = {}
        self.wakes: Dict[int, int] = {}
        self.exits: Dict[int, float] = {}

    # -- kernel hooks ------------------------------------------------------------

    def on_dispatch(self, thread: "Thread", time: float) -> None:
        self.dispatches[thread.tid] = self.dispatches.get(thread.tid, 0) + 1
        self.dispatch_log.append((time, thread.tid))
        if thread.runnable_since is not None:
            self.latencies.setdefault(thread.tid, []).append(
                time - thread.runnable_since
            )

    def on_cpu(self, thread: "Thread", start: float, duration: float) -> None:
        counter = self.cpu.get(thread.tid)
        if counter is None:
            counter = WindowedCounter(f"cpu:{thread.name}")
            self.cpu[thread.tid] = counter
        counter.add(start + duration, duration)

    def on_block(self, thread: "Thread", time: float) -> None:
        self.blocks[thread.tid] = self.blocks.get(thread.tid, 0) + 1

    def on_wake(self, thread: "Thread", time: float) -> None:
        self.wakes[thread.tid] = self.wakes.get(thread.tid, 0) + 1

    def on_exit(self, thread: "Thread", time: float) -> None:
        self.exits[thread.tid] = time

    # -- queries ---------------------------------------------------------------------

    def cpu_time(self, thread: "Thread",
                 until: Optional[float] = None) -> float:
        """Total CPU ms charged to the thread (optionally up to a time)."""
        counter = self.cpu.get(thread.tid)
        if counter is None:
            return 0.0
        if until is None:
            return counter.total
        return counter.total_until(until)

    def cpu_share(self, thread: "Thread", start: float, end: float) -> float:
        """Fraction of the [start, end) window the thread held the CPU."""
        counter = self.cpu.get(thread.tid)
        if counter is None or end <= start:
            return 0.0
        return counter.count_between(start, end) / (end - start)

    def mean_latency(self, thread: "Thread") -> float:
        """Average runnable-to-dispatch latency (response-time proxy)."""
        values = self.latencies.get(thread.tid, [])
        if not values:
            return 0.0
        return sum(values) / len(values)


class RecorderMux:
    """Several sinks on one kernel's event stream.

    Replaces the "single recorder slot" limitation: a
    :class:`KernelRecorder`, a replay recorder, and a telemetry probe
    can all observe the same run.  Sinks hear an event in attach order,
    deterministically; a sink missing part of the event surface is
    rejected at :meth:`add` time (fail at wiring, not mid-simulation).
    Each event is resolved over the sinks whenever they change
    (:attr:`resolved_events`), and a kernel calls the resolution, not
    the mux: the ``on_*`` methods serve a caller holding the mux itself.
    """

    __slots__ = ("_sinks", "active", "resolved_events")

    def __init__(self, *sinks: Any) -> None:
        self._sinks: List[Any] = []
        #: False while no sinks are attached.
        self.active = False
        #: Per event of the surface, in its order: None (no sink
        #: listens), the one listener, or a fan-out over the listeners.
        self.resolved_events: List[Any] = resolve_recorder_events(())
        for sink in sinks:
            self.add(sink)

    @property
    def sinks(self) -> List[Any]:
        """The attached sinks, in attach order (a fresh list)."""
        return list(self._sinks)

    def add(self, sink: Any) -> Any:
        """Attach a sink; validates the full event surface, returns it."""
        missing = [name for name in RECORDER_EVENT_SURFACE
                   if not callable(getattr(sink, name, None))]
        if missing:
            raise ReproError(
                f"recorder sink {type(sink).__name__} is missing event "
                f"method(s): {', '.join(missing)} (the full surface is "
                f"{', '.join(RECORDER_EVENT_SURFACE)})"
            )
        if sink is self:
            raise ReproError("a RecorderMux cannot contain itself")
        self._sinks.append(sink)
        self._resolve()
        return sink

    def remove(self, sink: Any) -> None:
        """Detach a sink (no-op when absent)."""
        if sink in self._sinks:
            self._sinks.remove(sink)
            self._resolve()

    def _resolve(self) -> None:
        self.active = bool(self._sinks)
        self.resolved_events = resolve_recorder_events(self._sinks)

    def __len__(self) -> int:
        return len(self._sinks)

    # -- kernel recorder interface ------------------------------------------

    def _emit(self, index: int, *args: Any) -> None:
        emit = self.resolved_events[index]
        if emit is not None:
            emit(*args)

    def on_dispatch(self, thread: "Thread", time: float) -> None:
        self._emit(0, thread, time)

    def on_cpu(self, thread: "Thread", start: float, duration: float) -> None:
        self._emit(1, thread, start, duration)

    def on_block(self, thread: "Thread", time: float) -> None:
        self._emit(2, thread, time)

    def on_wake(self, thread: "Thread", time: float) -> None:
        self._emit(3, thread, time)

    def on_exit(self, thread: "Thread", time: float) -> None:
        self._emit(4, thread, time)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        names = [type(sink).__name__ for sink in self._sinks]
        return f"<RecorderMux sinks={names}>"
