"""Virtual clock for the discrete-event simulator.

All simulation time is measured in **milliseconds** of virtual time, the
natural unit of the paper's experiments (100 ms Mach quantum, sub-second
fairness windows).  The clock only moves when the engine processes an
event; nothing in the simulator reads wall-clock time, which is what
makes runs exactly reproducible.
"""

from __future__ import annotations

from repro.errors import SimulationError

__all__ = ["VirtualClock", "MS", "SECONDS"]

#: One millisecond of virtual time (the base unit).
MS = 1.0

#: Milliseconds per second, for readable experiment configuration.
SECONDS = 1000.0


class VirtualClock:
    """Monotonically non-decreasing virtual time source.

    ``now`` (milliseconds) is a plain attribute so the per-event paths
    read it in one hop; :meth:`advance_to` is its only writer.
    """

    __slots__ = ("now",)

    def __init__(self, start: float = 0.0) -> None:
        if start < 0:
            raise SimulationError(f"clock cannot start at negative time {start}")
        self.now = float(start)

    def advance_to(self, time: float) -> None:
        """Move the clock forward to ``time`` (backwards is an error)."""
        if time < self.now - 1e-9:
            raise SimulationError(
                f"clock cannot run backwards: at {self.now}, asked for {time}"
            )
        if time > self.now:
            self.now = time

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"VirtualClock(now={self.now:.3f}ms)"
