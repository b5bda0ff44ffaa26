"""Deterministic fault plans: seeded schedules of failures.

A :class:`FaultPlan` is an immutable, time-sorted list of
:class:`FaultEvent` objects -- *when* each fault fires, *what* kind it
is, and *which* component it targets -- written out through the
:class:`FaultPlanBuilder`'s declarative methods.  Its seed roots the
injector's own Park-Miller stream (per-fault noise and dice), so a
chaos run is an ordinary deterministic simulation whose inputs happen
to include failures.

The plan is pure data.  Applying it to a live system is the job of
:class:`repro.faults.injector.FaultInjector`, which registers one
engine callback per event; nothing here touches the kernel.

Fault taxonomy (see ``docs/FAULTS.md``; a whole core crashing and
restarting is a ``crash`` / ``restart`` op of a sharded plan,
:class:`repro.shard.plan.ShardPlan`):

==============  =========================================================
Kind            Meaning
==============  =========================================================
thread-kill     one thread is terminated, tickets reclaimed
clock-skew      a kernel's quantum is scaled by ``factor`` for a window
timer-jitter    a kernel's quantum gets uniform +/- ``amplitude_ms``
                noise for a window (seeded, replayable)
ipc-drop        a kernel's ports drop deliveries with ``drop_rate``;
                dropped messages are retransmitted with bounded
                exponential backoff (see ``repro.faults.retry``)
ipc-delay       a kernel's ports delay deliveries by ``delay_ms``
                (+ optional seeded jitter)
disk-errors     a disk fails completions with ``error_rate``
==============  =========================================================
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.errors import FaultError

__all__ = ["FaultKind", "FaultEvent", "FaultPlan", "FaultPlanBuilder"]


class FaultKind:
    """String constants naming the supported fault kinds."""

    THREAD_KILL = "thread-kill"
    CLOCK_SKEW = "clock-skew"
    TIMER_JITTER = "timer-jitter"
    IPC_DROP = "ipc-drop"
    IPC_DELAY = "ipc-delay"
    DISK_ERRORS = "disk-errors"

    ALL = (THREAD_KILL, CLOCK_SKEW, TIMER_JITTER, IPC_DROP, IPC_DELAY,
           DISK_ERRORS)


@dataclass(frozen=True)
class FaultEvent:
    """One scheduled fault: fire time (virtual ms), kind, target, params."""

    time: float
    kind: str
    target: str
    params: Dict[str, Any] = field(default_factory=dict)

    def describe(self, with_time: bool = True) -> str:
        """Canonical one-line rendering (stable across runs).

        ``with_time=False`` omits the scheduled time -- used by the
        injector's application log, which prefixes the actual firing
        time itself.
        """
        extras = " ".join(
            f"{key}={self.params[key]!r}" for key in sorted(self.params)
        )
        text = f"{self.kind} {self.target}"
        if with_time:
            text = f"t={self.time:g} {text}"
        return f"{text} {extras}" if extras else text

    def to_dict(self) -> Dict[str, Any]:
        """JSON-serializable form (see :meth:`FaultPlan.to_dict`)."""
        return {
            "time": self.time,
            "kind": self.kind,
            "target": self.target,
            "params": {key: self.params[key] for key in sorted(self.params)},
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "FaultEvent":
        """Inverse of :meth:`to_dict`; validates shape and kind."""
        try:
            time = float(data["time"])
            kind = data["kind"]
            target = data["target"]
        except (KeyError, TypeError, ValueError) as exc:
            raise FaultError(f"malformed fault event: {data!r}") from exc
        if kind not in FaultKind.ALL:
            raise FaultError(f"unknown fault kind {kind!r}")
        params = data.get("params", {})
        if not isinstance(params, dict):
            raise FaultError(f"fault event params must be a dict: {params!r}")
        return cls(time, kind, target, dict(params))


class FaultPlan:
    """An immutable, time-ordered fault schedule.

    Build one with :class:`FaultPlanBuilder`; iterate to get the events
    in firing order.  ``signature()`` renders the whole schedule as a
    stable string -- two plans with equal signatures inject identical
    fault sequences, which is what the determinism tests compare.
    """

    def __init__(self, events: Sequence[FaultEvent], seed: int) -> None:
        for event in events:
            if event.kind not in FaultKind.ALL:
                raise FaultError(f"unknown fault kind {event.kind!r}")
            if event.time < 0:
                raise FaultError(f"fault time must be >= 0: {event.time}")
        # Stable sort: same-time events keep their declaration order.
        self.events: Tuple[FaultEvent, ...] = tuple(
            sorted(events, key=lambda e: e.time)
        )
        self.seed = seed

    def __iter__(self) -> Iterator[FaultEvent]:
        return iter(self.events)

    def __len__(self) -> int:
        return len(self.events)

    def of_kind(self, kind: str) -> List[FaultEvent]:
        """Events of one kind, in firing order."""
        return [e for e in self.events if e.kind == kind]

    def signature(self) -> str:
        """Stable textual digest of the schedule (one line per event)."""
        lines = [f"seed={self.seed}"]
        lines.extend(event.describe() for event in self.events)
        return "\n".join(lines)

    def to_dict(self) -> Dict[str, Any]:
        """JSON-serializable form: the plan is pure data, so checkpoints
        can embed it and reconstruct an identical schedule on restore."""
        return {
            "seed": self.seed,
            "events": [event.to_dict() for event in self.events],
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "FaultPlan":
        """Inverse of :meth:`to_dict` (validates every event)."""
        try:
            seed = int(data["seed"])
            events = data["events"]
        except (KeyError, TypeError, ValueError) as exc:
            raise FaultError(f"malformed fault plan: {data!r}") from exc
        if not isinstance(events, (list, tuple)):
            raise FaultError(f"fault plan events must be a list: {events!r}")
        return cls([FaultEvent.from_dict(event) for event in events],
                   seed=seed)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<FaultPlan seed={self.seed} events={len(self.events)}>"


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise FaultError(message)


class FaultPlanBuilder:
    """Declarative construction of :class:`FaultPlan` objects.

    Every method validates its parameters and returns ``self`` so
    schedules chain::

        plan = (FaultPlanBuilder(seed=7)
                .kill_thread("worker", at=30_000)
                .drop_ipc("kernel", at=10_000, duration=5_000, drop_rate=0.3)
                .build())

    ``seed`` becomes the plan's: it roots the injector's noise streams.
    """

    def __init__(self, seed: int = 1) -> None:
        self.seed = int(seed)
        self._events: List[FaultEvent] = []

    # -- generic ------------------------------------------------------------

    def add(self, time: float, kind: str, target: str,
            **params: Any) -> "FaultPlanBuilder":
        """Append one event (escape hatch; prefer the named methods)."""
        _require(kind in FaultKind.ALL, f"unknown fault kind {kind!r}")
        _require(time >= 0, f"fault time must be >= 0: {time}")
        _require(bool(target), "fault target must be non-empty")
        self._events.append(FaultEvent(float(time), kind, target, params))
        return self

    # -- threads ------------------------------------------------------------

    def kill_thread(self, thread: str, at: float) -> "FaultPlanBuilder":
        """Terminate the thread named ``thread`` at ``at``."""
        return self.add(at, FaultKind.THREAD_KILL, thread)

    # -- timers -------------------------------------------------------------

    def clock_skew(self, node: str, at: float, factor: float,
                   duration: float) -> "FaultPlanBuilder":
        """Scale ``node``'s scheduling quantum by ``factor`` for a window."""
        _require(factor > 0, f"skew factor must be positive: {factor}")
        _require(duration > 0, f"duration must be positive: {duration}")
        return self.add(at, FaultKind.CLOCK_SKEW, node,
                        factor=float(factor), duration=float(duration))

    def timer_jitter(self, node: str, at: float, amplitude_ms: float,
                     duration: float) -> "FaultPlanBuilder":
        """Add uniform +/- ``amplitude_ms`` quantum noise for a window."""
        _require(amplitude_ms > 0,
                 f"amplitude_ms must be positive: {amplitude_ms}")
        _require(duration > 0, f"duration must be positive: {duration}")
        return self.add(at, FaultKind.TIMER_JITTER, node,
                        amplitude_ms=float(amplitude_ms),
                        duration=float(duration))

    # -- IPC ----------------------------------------------------------------

    def drop_ipc(self, node: str, at: float, duration: float,
                 drop_rate: float = 0.5, port: Optional[str] = None,
                 max_attempts: int = 4) -> "FaultPlanBuilder":
        """Drop deliveries on ``node``'s ports with ``drop_rate``.

        Dropped messages are retransmitted with bounded exponential
        backoff; ``port`` narrows the fault to one port name.
        """
        _require(0 < drop_rate <= 1, f"drop_rate must be in (0, 1]: {drop_rate}")
        _require(duration > 0, f"duration must be positive: {duration}")
        _require(max_attempts >= 1, f"max_attempts must be >= 1: {max_attempts}")
        params: Dict[str, Any] = {"drop_rate": float(drop_rate),
                                  "duration": float(duration),
                                  "max_attempts": int(max_attempts)}
        if port is not None:
            params["port"] = port
        return self.add(at, FaultKind.IPC_DROP, node, **params)

    def delay_ipc(self, node: str, at: float, duration: float,
                  delay_ms: float, jitter_ms: float = 0.0,
                  port: Optional[str] = None) -> "FaultPlanBuilder":
        """Delay deliveries on ``node``'s ports by ``delay_ms`` (+jitter)."""
        _require(delay_ms > 0, f"delay_ms must be positive: {delay_ms}")
        _require(jitter_ms >= 0, f"jitter_ms must be >= 0: {jitter_ms}")
        _require(duration > 0, f"duration must be positive: {duration}")
        params: Dict[str, Any] = {"delay_ms": float(delay_ms),
                                  "jitter_ms": float(jitter_ms),
                                  "duration": float(duration)}
        if port is not None:
            params["port"] = port
        return self.add(at, FaultKind.IPC_DELAY, node, **params)

    # -- disks --------------------------------------------------------------

    def disk_errors(self, disk: str, at: float, duration: float,
                    error_rate: float = 0.1) -> "FaultPlanBuilder":
        """Fail ``disk`` completions with ``error_rate`` for a window."""
        _require(0 < error_rate <= 1,
                 f"error_rate must be in (0, 1]: {error_rate}")
        _require(duration > 0, f"duration must be positive: {duration}")
        return self.add(at, FaultKind.DISK_ERRORS, disk,
                        error_rate=float(error_rate),
                        duration=float(duration))

    # -- finalization -------------------------------------------------------

    def build(self) -> FaultPlan:
        """Freeze the schedule into an immutable, time-sorted plan."""
        return FaultPlan(self._events, seed=self.seed)
