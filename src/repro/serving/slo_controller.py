"""SLO feedback loop: ticket inflation driven by wake->dispatch p99.

Two halves:

* :class:`ClassLatencyProbe` -- a recorder sink (the same protocol as
  :class:`repro.metrics.recorder.KernelRecorder`) that attributes
  each wake->dispatch latency sample to a *service class* by thread
  name (``fe:<class>:<n>``) and folds it into a bounded
  :class:`~repro.metrics.histogram.Histogram` per class -- the arena
  stats' ``wake`` digest of that class, when it has stats;
* :class:`SloController` -- a periodic control loop, run as an
  ordinary simulated thread, that compares each class's windowed p99
  against its target and **inflates** the class's lever tickets
  (``Ticket.set_amount``, the paper's section 3.2 primitive) on breach,
  deflating back toward the floor once the class runs comfortably
  under target.

Everything the controller reads (bin deltas at virtual-time epochs)
and everything it writes (ticket amounts) is inside the simulation, so
a controlled run remains a pure function of the seed: the feedback
loop changes *which* deterministic history happens, never determinism
itself.
"""

from __future__ import annotations

import math
from typing import Any, Dict, List, Optional, TYPE_CHECKING

from repro.core.tickets import Ticket
from repro.errors import ReproError
from repro.kernel.syscalls import Sleep
from repro.metrics.histogram import Histogram
from repro.serving.stats import BIN_MS, ServingStats, digest_state

if TYPE_CHECKING:  # pragma: no cover
    from repro.kernel.thread import Thread

__all__ = ["ClassLatencyProbe", "SloController", "SloClassState"]

#: Thread-name prefix that marks a class-attributed serving thread:
#: ``fe:<class>:<index>``.
FRONTEND_PREFIX = "fe:"

#: Virtual milliseconds between control epochs (the arena's controller
#: thread and each sharded plan core's alike).
SLO_EPOCH_MS = 250.0
#: Multiplier on a lever after a breaching epoch, and after a
#: comfortable one: multiplicative increase converges geometrically.
INFLATE = 1.3
DEFLATE = 0.85
#: A window p99 under ``COMFORT * target`` counts as comfortable; the
#: band between it and the target keeps the loop from oscillating.
COMFORT = 0.5
#: A lever's ceiling, as a multiple of its amount at registration
#: (which is its floor).
CEILING_FACTOR = 16.0


class ClassLatencyProbe:
    """Recorder sink folding wake->dispatch latency into class digests.

    Class attribution is by thread name (``fe:gold:0`` -> ``gold``),
    resolved once per thread and cached by id.  Implements the full
    recorder event surface (it is listed in ``RECORDER_SINKS``).
    With ``stats``, a class's digest is the stats' ``wake`` digest of
    that class, so each sample is recorded once.
    """

    #: Recorder events the kernel need not call.
    ignored_events = ("on_cpu", "on_block", "on_wake")

    def __init__(self, stats: Optional[ServingStats] = None) -> None:
        self.stats = stats
        #: Cumulative per-class wake->dispatch digests (the controller
        #: reads windowed deltas out of these).
        self.window: Dict[str, Histogram] = {}
        #: id(thread) -> class name ("" = not a serving thread).
        self._by_tid: Dict[int, str] = {}

    def _class_of(self, thread: "Thread") -> str:
        tid = id(thread)
        cached = self._by_tid.get(tid)
        if cached is None:
            name = thread.name
            if name.startswith(FRONTEND_PREFIX):
                cached = name[len(FRONTEND_PREFIX):].split(":", 1)[0]
            else:
                cached = ""
            self._by_tid[tid] = cached
        return cached

    def digest(self, service_class: str) -> Histogram:
        existing = self.window.get(service_class)
        if existing is None:
            existing = Histogram(BIN_MS, f"wake:{service_class}")
            self.window[service_class] = existing
        return existing

    # -- recorder event surface -------------------------------------------

    def on_dispatch(self, thread: "Thread", time: float) -> None:
        service_class = self._by_tid.get(id(thread))
        if service_class is None:
            service_class = self._class_of(thread)
        if not service_class:
            return
        runnable_since = thread.runnable_since
        if runnable_since is None:
            return
        latency = time - runnable_since
        if latency < 0:
            return
        digest = self.window.get(service_class)
        if digest is None or not digest.count:  # the class's first sample
            stats = self.stats
            if stats is None:
                digest = self.digest(service_class)
            else:  # the stats' digest; one the controller made is empty
                if service_class not in stats.offered:
                    stats.ensure_class(service_class)
                digest = self.window[service_class] = stats.wake[service_class]
        digest.record(latency)

    def on_cpu(self, thread: "Thread", start: float, duration: float) -> None:
        pass

    def on_block(self, thread: "Thread", time: float) -> None:
        pass

    def on_wake(self, thread: "Thread", time: float) -> None:
        pass

    def on_exit(self, thread: "Thread", time: float) -> None:
        # Drop the cache entry so a recycled id cannot inherit a class.
        self._by_tid.pop(id(thread), None)

    def snapshot_state(self) -> Dict[str, Any]:
        """Typed state tree for checkpointing (see ``repro.checkpoint``)."""
        return {
            # A constant; the key stays because pinned state trees
            # contain it.
            "prefix": FRONTEND_PREFIX,
            "window": {name: digest_state(digest)
                       for name, digest in sorted(self.window.items())},
        }


class SloClassState:
    """Per-class controller bookkeeping (target, lever, window base)."""

    def __init__(self, name: str, target_p99_ms: float,
                 levers: List[Ticket]) -> None:
        # ``nan < inf`` is false, so NaN fails both checks.
        if not 0 < target_p99_ms < math.inf:
            raise ReproError(
                f"SLO target must be positive and finite: {target_p99_ms}")
        if not levers:
            raise ReproError(f"class {name!r} has no lever tickets")
        floor = levers[0].amount
        if not 0 < floor < math.inf:
            raise ReproError(
                f"lever amount of {name!r} must be positive and finite: "
                f"{floor}")
        self.name = name
        self.target_p99_ms = float(target_p99_ms)
        self.levers = list(levers)
        #: The lever's amount at registration, and its ceiling.
        self.floor = float(floor)
        self.ceiling = self.floor * CEILING_FACTOR
        #: Copy of the class digest at the previous control epoch.
        self.baseline: Optional[Histogram] = None

    def amount(self) -> float:
        return self.levers[0].amount

    def set_amount(self, amount: float) -> None:
        for lever in self.levers:
            lever.set_amount(amount)

    def snapshot_state(self) -> Dict[str, Any]:
        """Typed state tree for checkpointing (see ``repro.checkpoint``)."""
        return {
            "name": self.name,
            "target_p99_ms": self.target_p99_ms,
            "floor": self.floor,
            "ceiling": self.ceiling,
            "amount": self.amount(),
            "levers": len(self.levers),
        }


class SloController:
    """Windowed p99 -> multiplicative ticket inflation, per epoch.

    Each control epoch the controller takes the delta of a class's
    wake->dispatch bins since the previous epoch, computes the window
    p99, and multiplies the class's lever tickets by ``INFLATE`` on a
    breach (clamped to its ceiling) or ``DEFLATE`` once p99 falls below
    ``COMFORT * target`` (clamped back to its floor).
    """

    def __init__(self, probe: ClassLatencyProbe,
                 epoch_ms: float = SLO_EPOCH_MS,
                 min_samples: int = 20) -> None:
        # Written so that NaN fails too: ``nan <= 0`` is false.
        if not 0 < epoch_ms < math.inf:
            raise ReproError(
                f"epoch_ms must be positive and finite: {epoch_ms}")
        if not (isinstance(min_samples, int)
                and not isinstance(min_samples, bool) and min_samples >= 0):
            raise ReproError(
                f"min_samples must be a non-negative int: {min_samples!r}")
        self.probe = probe
        self.epoch_ms = float(epoch_ms)
        self.min_samples = min_samples
        self.classes: Dict[str, SloClassState] = {}
        self.epochs = 0
        #: One row per (epoch, class) decision, in control order.
        self.history: List[Dict[str, Any]] = []

    def add_class(self, name: str, target_p99_ms: float,
                  levers: List[Ticket]) -> None:
        """Register a class: its SLO target and its lever tickets.  The
        levers' current amount is the class's floor."""
        if name in self.classes:
            raise ReproError(f"class {name!r} already registered")
        self.classes[name] = SloClassState(name, target_p99_ms, levers)

    def control(self, now_ms: float) -> None:
        """Run one control epoch over all registered classes."""
        self.epochs += 1
        for name in sorted(self.classes):
            state = self.classes[name]
            digest = self.probe.digest(name)
            window = digest.since(state.baseline)
            state.baseline = digest.copy()
            samples = window.count
            old = state.amount()
            if samples < self.min_samples:
                action, p99, new = "idle", 0.0, old
            else:
                p99 = window.percentile(99.0)
                if p99 > state.target_p99_ms:
                    action = "inflate"
                    new = min(state.ceiling, old * INFLATE)
                elif (p99 < state.target_p99_ms * COMFORT
                      and old > state.floor):
                    action = "deflate"
                    new = max(state.floor, old * DEFLATE)
                else:
                    action, new = "hold", old
            if new != old:
                state.set_amount(new)
            self.history.append({
                "epoch": self.epochs,
                "time_ms": now_ms,
                "class": name,
                "samples": samples,
                "window_p99_ms": p99,
                "amount_before": old,
                "amount_after": new,
                "action": action,
            })

    def body(self):
        """Thread body running :meth:`control` every ``epoch_ms``."""
        controller = self

        def _body(ctx):
            while True:
                yield Sleep(controller.epoch_ms)
                controller.control(ctx.now)

        return _body

    def recovery_epoch(self, name: str) -> Optional[int]:
        """First epoch at which ``name`` met its target after a breach.

        None if the class never breached or never recovered.
        """
        target = self.classes[name].target_p99_ms
        breached = False
        for row in self.history:
            if row["class"] != name or row["action"] == "idle":
                continue
            if row["window_p99_ms"] > target:
                breached = True
            elif breached:
                return row["epoch"]
        return None

    def snapshot_state(self) -> Dict[str, Any]:
        """Typed state tree for checkpointing (see ``repro.checkpoint``)."""
        return {
            "epoch_ms": self.epoch_ms,
            "epochs": self.epochs,
            "min_samples": self.min_samples,
            # Constants; the keys stay because pinned state trees
            # contain them.
            "inflate": INFLATE,
            "deflate": DEFLATE,
            "comfort": COMFORT,
            "classes": {name: state.snapshot_state()
                        for name, state in sorted(self.classes.items())},
            "decisions": len(self.history),
        }
