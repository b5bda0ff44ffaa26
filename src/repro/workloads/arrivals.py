"""Deterministic open-loop arrival processes (seed + virtual time only).

The heavy-traffic serving arena (:mod:`repro.serving`) drives the
simulated kernel with *open-loop* request streams: arrival instants are
a pure function of a seed, never of service completions, so offered
load can exceed capacity and queues grow -- the regime where tail
latency, not mean throughput, is the verdict (see ``docs/SERVING.md``).

Three processes are provided, all built on the paper's Park-Miller
stream (:class:`repro.core.prng.ParkMillerPRNG`) and therefore
bit-reproducible across runs, platforms, and shard placements:

* :class:`PoissonArrivals` -- memoryless arrivals at a constant rate
  (inter-arrival CV = 1);
* :class:`MMPPArrivals` -- a two-state Markov-modulated Poisson
  process alternating calm and burst phases (CV > 1, the bursty
  traffic of flash crowds), time-averaged to the requested rate;
* :class:`DiurnalArrivals` -- a non-homogeneous Poisson process whose
  rate follows a sinusoidal day/night cycle, sampled exactly by
  Lewis-Shedler thinning (every candidate and acceptance draw comes
  from the one seeded stream).

Each process is an iterator-style object: ``next_arrival_ms()`` yields
the next absolute arrival instant in virtual milliseconds.  State is a
handful of scalars plus the PRNG position, so the processes checkpoint
through ``snapshot_state()`` like every other stateful object (see
``repro.checkpoint``).
"""

from __future__ import annotations

import hashlib
import math
from typing import Any, Dict, Iterator, List

from repro.core.prng import ParkMillerPRNG
from repro.errors import ReproError

__all__ = [
    "ArrivalProcess",
    "PoissonArrivals",
    "MMPPArrivals",
    "DiurnalArrivals",
    "ARRIVAL_KINDS",
    "make_arrivals",
    "replay_digest",
]


class ArrivalProcess:
    """Base class: a seeded stream of absolute arrival instants (ms).

    Subclasses implement ``_interval_ms()`` -- the wait from the last
    arrival to the next one -- using only ``self.prng`` and their own
    scalar state, which is what keeps every stream a pure function of
    ``(kind, seed, parameters)``.
    """

    kind = "abstract"

    def __init__(self, seed: int, rate_per_s: float) -> None:
        # ``nan < inf`` is false, so NaN fails too: a NaN rate made NaN
        # instants (Poisson) or never returned (MMPP, diurnal), and an
        # infinite one made 0 ms gaps.
        if not 0 < rate_per_s < math.inf:
            raise ReproError(
                f"arrival rate must be positive and finite: {rate_per_s}")
        self.rate_per_s = float(rate_per_s)
        self.prng = ParkMillerPRNG(seed)
        #: Virtual time of the last generated arrival (ms).
        self.clock_ms = 0.0
        #: Arrivals generated so far.
        self.emitted = 0

    # -- the generator ---------------------------------------------------

    def _interval_ms(self) -> float:
        raise NotImplementedError

    def next_arrival_ms(self) -> float:
        """Advance the stream one arrival; returns its absolute instant."""
        self.clock_ms += self._interval_ms()
        self.emitted += 1
        return self.clock_ms

    def take(self, count: int) -> List[float]:
        """The next ``count`` arrival instants (testing convenience)."""
        return [self.next_arrival_ms() for _ in range(count)]

    def iter_arrivals(self, count: int) -> Iterator[float]:
        """Yield the next ``count`` arrival instants lazily."""
        for _ in range(count):
            yield self.next_arrival_ms()

    # -- checkpointing -----------------------------------------------------

    def snapshot_state(self) -> Dict[str, Any]:
        """Typed state tree for checkpointing (see ``repro.checkpoint``)."""
        return {
            "kind": self.kind,
            "rate_per_s": self.rate_per_s,
            "prng": self.prng.snapshot_state(),
            "clock_ms": self.clock_ms,
            "emitted": self.emitted,
        }

    def restore_state(self, state: Dict[str, Any]) -> None:
        """Re-position the stream from a :meth:`snapshot_state` tree."""
        self.prng.restore_state(state["prng"])
        self.clock_ms = float(state["clock_ms"])
        self.emitted = int(state["emitted"])

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<{type(self).__name__} rate={self.rate_per_s:g}/s "
                f"emitted={self.emitted} t={self.clock_ms:.1f}ms>")


class PoissonArrivals(ArrivalProcess):
    """Homogeneous Poisson arrivals: exponential inter-arrival times."""

    kind = "poisson"

    def _interval_ms(self) -> float:
        return self.prng.expovariate(self.rate_per_s / 1000.0)


class MMPPArrivals(ArrivalProcess):
    """Two-state Markov-modulated Poisson process (bursty traffic).

    The stream alternates a *calm* phase and a *burst* phase whose
    rates differ by ``burst_factor``; phase dwell times are exponential
    with the burst phase ``burst_factor`` times shorter, so the
    time-averaged rate equals ``rate_per_s`` exactly:

        calm rate  = rate * (b + 1) / (2b)
        burst rate = rate * (b + 1) / 2
        E[dwell]   = mean_dwell_ms (calm), mean_dwell_ms / b (burst)

    Inter-arrival CV exceeds 1 for every ``burst_factor > 1`` -- the
    signature of bursty open-loop traffic.
    """

    kind = "mmpp"

    def __init__(self, seed: int, rate_per_s: float,
                 burst_factor: float = 4.0,
                 mean_dwell_ms: float = 2_000.0) -> None:
        super().__init__(seed, rate_per_s)
        if not 1.0 < burst_factor < math.inf:
            raise ReproError(
                f"burst factor must exceed 1 and be finite: {burst_factor}")
        if not 0 < mean_dwell_ms < math.inf:
            raise ReproError(
                f"mean dwell must be positive and finite: {mean_dwell_ms}")
        self.burst_factor = float(burst_factor)
        self.mean_dwell_ms = float(mean_dwell_ms)
        self._calm_rate = (rate_per_s * (burst_factor + 1.0)
                           / (2.0 * burst_factor))
        self._burst_rate = rate_per_s * (burst_factor + 1.0) / 2.0
        #: 0 = calm phase, 1 = burst phase.
        self._phase = 0
        #: Virtual instant the current phase's dwell ends.
        self._phase_until_ms = self.prng.expovariate(
            1.0 / self.mean_dwell_ms)

    def _phase_rate_per_ms(self) -> float:
        rate = self._burst_rate if self._phase else self._calm_rate
        return rate / 1000.0

    def _dwell_ms(self) -> float:
        mean = (self.mean_dwell_ms / self.burst_factor if self._phase
                else self.mean_dwell_ms)
        return self.prng.expovariate(1.0 / mean)

    def _interval_ms(self) -> float:
        # Walk dwell segments until an arrival lands inside one.  The
        # exponential's memorylessness makes the redraw after a phase
        # switch exact, and every draw comes from the single seeded
        # stream, so the walk is deterministic.
        cursor = self.clock_ms
        while True:
            wait = self.prng.expovariate(self._phase_rate_per_ms())
            if cursor + wait <= self._phase_until_ms:
                return cursor + wait - self.clock_ms
            cursor = self._phase_until_ms
            self._phase = 1 - self._phase
            self._phase_until_ms = cursor + self._dwell_ms()

    def snapshot_state(self) -> Dict[str, Any]:
        state = super().snapshot_state()
        state.update({
            "burst_factor": self.burst_factor,
            "mean_dwell_ms": self.mean_dwell_ms,
            "phase": self._phase,
            "phase_until_ms": self._phase_until_ms,
        })
        return state

    def restore_state(self, state: Dict[str, Any]) -> None:
        super().restore_state(state)
        self._phase = int(state["phase"])
        self._phase_until_ms = float(state["phase_until_ms"])


class DiurnalArrivals(ArrivalProcess):
    """Non-homogeneous Poisson arrivals on a sinusoidal day/night cycle.

    The instantaneous rate is ``rate * (1 + amplitude * sin(2pi t /
    period))``, sampled exactly by Lewis-Shedler thinning against the
    peak rate: candidates are drawn at the peak rate and accepted with
    probability ``rate(t) / peak`` -- both draws from the one seeded
    stream, so the accepted instants are a pure function of the seed.
    """

    kind = "diurnal"

    def __init__(self, seed: int, rate_per_s: float,
                 period_ms: float = 60_000.0,
                 amplitude: float = 0.8) -> None:
        super().__init__(seed, rate_per_s)
        if not 0 < period_ms < math.inf:
            raise ReproError(
                f"period must be positive and finite: {period_ms}")
        if not 0.0 <= amplitude < 1.0:
            raise ReproError(
                f"amplitude must be in [0, 1): {amplitude}")
        self.period_ms = float(period_ms)
        self.amplitude = float(amplitude)
        self._peak_rate_per_ms = rate_per_s * (1.0 + amplitude) / 1000.0

    def rate_at(self, time_ms: float) -> float:
        """Instantaneous arrival rate (per second) at ``time_ms``."""
        phase = 2.0 * math.pi * time_ms / self.period_ms
        return self.rate_per_s * (1.0 + self.amplitude * math.sin(phase))

    def _interval_ms(self) -> float:
        cursor = self.clock_ms
        while True:
            cursor += self.prng.expovariate(self._peak_rate_per_ms)
            accept = (self.rate_at(cursor) / 1000.0
                      / self._peak_rate_per_ms)
            if self.prng.uniform() < accept:
                return cursor - self.clock_ms

    def snapshot_state(self) -> Dict[str, Any]:
        state = super().snapshot_state()
        state.update({
            "period_ms": self.period_ms,
            "amplitude": self.amplitude,
        })
        return state


#: kind -> class.  Write-once registry, like the recipe and body
#: registries; keys are the values of each class's ``kind`` attribute.
ARRIVAL_KINDS: Dict[str, type] = {
    PoissonArrivals.kind: PoissonArrivals,
    MMPPArrivals.kind: MMPPArrivals,
    DiurnalArrivals.kind: DiurnalArrivals,
}


def make_arrivals(kind: str, seed: int, rate_per_s: float,
                  **params: Any) -> ArrivalProcess:
    """Build an arrival process by kind name (plan/JSON friendly)."""
    try:
        cls = ARRIVAL_KINDS[kind]
    except KeyError:
        raise ReproError(
            f"unknown arrival kind {kind!r}; known: "
            f"{sorted(ARRIVAL_KINDS)}") from None
    return cls(seed, rate_per_s, **params)


def replay_digest(kind: str, seed: int, rate_per_s: float, count: int,
                  **params: Any) -> str:
    """sha256 over the first ``count`` arrival instants of a stream.

    The digest pins a stream's exact float sequence (via ``repr``, so
    no formatting loss), giving tests a one-line bit-reproducibility
    check per (kind, seed, rate) triple.
    """
    process = make_arrivals(kind, seed, rate_per_s, **params)
    text = ",".join(repr(t) for t in process.iter_arrivals(count))
    return hashlib.sha256(text.encode("ascii")).hexdigest()
