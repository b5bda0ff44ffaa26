"""Park-Miller minimal-standard pseudo-random number generator.

The paper's prototype selects winning tickets with the multiplicative
linear congruential generator of Park and Miller [Par88]:

    S' = (A * S) mod M,   A = 16807,  M = 2**31 - 1

implemented in ~10 RISC instructions using Carta's high/low-word
decomposition [Car90] (paper Appendix A).  This module reproduces both
the mathematical generator and the exact overflow-handling dance of the
MIPS assembly listing, so the stream of winning-ticket choices is
bit-for-bit the stream the prototype kernel would have produced.

Two interfaces are provided:

* :class:`ParkMillerPRNG` -- a seedable generator object with the
  convenience draws the schedulers need (``next_uint``, ``randrange``,
  ``uniform``, ``expovariate``).
* :func:`fastrand` -- the raw one-step transition function matching the
  ANSI prototype ``unsigned int fastrand(unsigned int s)`` from the
  appendix, for direct testing against the published algorithm.
"""

from __future__ import annotations

import math
from typing import Iterator, List, Sequence, TypeVar

from repro.errors import ReproError

__all__ = [
    "MULTIPLIER",
    "MODULUS",
    "fastrand",
    "fastrand_reference",
    "ParkMillerPRNG",
]

#: Park-Miller "minimal standard" multiplier (paper Appendix A: ``li $8, 33614``
#: is 2*A folded into the Carta trick; the underlying A is 16807).
MULTIPLIER = 16807

#: Mersenne prime modulus 2**31 - 1.
MODULUS = 2**31 - 1

_T = TypeVar("_T")


def fastrand_reference(seed: int) -> int:
    """One step of the Park-Miller generator, straightforward form.

    Computes ``(MULTIPLIER * seed) % MODULUS`` directly.  Used as the
    oracle that :func:`fastrand` (the Carta-decomposition port of the
    paper's assembly) is tested against.
    """
    if not 0 < seed < MODULUS:
        raise ReproError(f"Park-Miller seed must be in (0, 2**31-1), got {seed}")
    return (MULTIPLIER * seed) % MODULUS


def fastrand(seed: int) -> int:
    """One step of the generator via Carta's decomposition [Car90].

    This mirrors the paper's MIPS assembly (Appendix A) operation for
    operation.  The assembly multiplies by ``33614 = 2 * 16807`` and then
    splits the 64-bit product of ``2*A*S`` into

    * ``Q`` = bits 0..31 of ``2*A*S`` shifted right once (i.e. low word
      of ``A*S``), and
    * ``P`` = bits 32..63 shifted left ... equivalently the high word of
      ``A*S`` doubled and re-halved;

    then forms ``S' = P + Q`` and folds any overflow past bit 31 back in
    (clear bit 31, add 1).  The net effect is ``(A*S) mod (2**31 - 1)``
    without a division.
    """
    if not 0 < seed < MODULUS:
        raise ReproError(f"Park-Miller seed must be in (0, 2**31-1), got {seed}")
    product = 2 * MULTIPLIER * seed  # multu $8: HI,LO = (2*A) * S
    lo = product & 0xFFFFFFFF
    hi = product >> 32
    q = lo >> 1  # srl $9, $9, 1: Q = bits 0..30 of A*S
    p = hi  # mfhi $10: P = bits 31..62 of A*S
    s_new = p + q  # addu $2: S' = P + Q
    if s_new & 0x80000000:  # bltz overflow branch: zero bit 31, add 1
        s_new = (s_new & 0x7FFFFFFF) + 1
    return s_new


class ParkMillerPRNG:
    """Seedable Park-Miller stream with scheduler-oriented helpers.

    The generator state is the last raw draw; successive calls walk the
    full period-(2**31 - 2) cycle.  All higher-level draws (range
    reduction, floats, permutations) are built only on the one-step
    :func:`fastrand`, through :meth:`next_uint` or, in :meth:`uniform`,
    directly, so the underlying stream stays reproducible and testable.

    Parameters
    ----------
    seed:
        Initial state; any value is folded into ``[1, 2**31 - 2]``.
    """

    def __init__(self, seed: int = 1) -> None:
        self.reseed(seed)

    def reseed(self, seed: int) -> None:
        """Reset the stream. Any integer is accepted and folded into range."""
        state = int(seed) % MODULUS
        if state <= 0:
            state += MODULUS - 1
        if state >= MODULUS:
            state = 1
        self._state = state
        self._initial_seed = state

    @property
    def state(self) -> int:
        """Current raw generator state (the last value returned)."""
        return self._state

    @property
    def initial_seed(self) -> int:
        """The (folded) seed this stream started from."""
        return self._initial_seed

    def next_uint(self) -> int:
        """Advance one step; returns a value uniform on [1, 2**31 - 2]."""
        self._state = fastrand(self._state)
        return self._state

    def randrange(self, bound: int) -> int:
        """Uniform integer on ``[0, bound)``.

        Uses rejection sampling on the top of the range so small bounds
        are exactly uniform rather than merely approximately so -- a
        lottery over T tickets must give each ticket probability exactly
        1/T or the paper's fairness analysis (section 2.2) would acquire
        a systematic bias.
        """
        if bound <= 0:
            raise ReproError(f"randrange bound must be positive, got {bound}")
        if bound >= MODULUS:
            raise ReproError(f"randrange bound {bound} exceeds generator range")
        span = MODULUS - 1  # values 1..MODULUS-1 are equiprobable
        limit = span - span % bound
        while True:
            value = self.next_uint() - 1  # now uniform on [0, span)
            if value < limit:
                return value % bound

    def uniform(self) -> float:
        """Uniform float on [0, 1)."""
        # next_uint's step, one frame fewer: every lottery draw lands here.
        self._state = state = fastrand(self._state)
        return (state - 1) / (MODULUS - 1)

    def expovariate(self, rate: float) -> float:
        """Exponential variate with the given rate (mean ``1/rate``)."""
        if rate <= 0:
            raise ReproError(f"expovariate rate must be positive, got {rate}")
        u = self.uniform()
        # Guard the log: uniform() can return exactly 0.0.
        return -math.log(1.0 - u) / rate

    def choice(self, items: Sequence[_T]) -> _T:
        """Uniformly select one element of a non-empty sequence."""
        if not items:
            raise ReproError("choice requires a non-empty sequence")
        return items[self.randrange(len(items))]

    def shuffle(self, items: List[_T]) -> None:
        """In-place Fisher-Yates shuffle driven by this stream."""
        for i in range(len(items) - 1, 0, -1):
            j = self.randrange(i + 1)
            items[i], items[j] = items[j], items[i]

    def spawn(self) -> "ParkMillerPRNG":
        """Derive an independent-ish child stream.

        The child seed is the next draw XOR a decorrelating constant:
        seeding with the raw draw would start the child exactly one
        step ahead of the parent on the generator's single cycle,
        making the two streams identical.  The perturbed seed lands at
        an unrelated cycle offset.
        """
        return ParkMillerPRNG((self.next_uint() ^ 0x55AA55AA) & 0x7FFFFFFF)

    def iter_uints(self, count: int) -> Iterator[int]:
        """Yield the next ``count`` raw draws (testing convenience)."""
        for _ in range(count):
            yield self.next_uint()

    def snapshot_state(self) -> dict:
        """Typed state tree for checkpointing (see ``repro.checkpoint``).

        The whole stream position is one integer -- the last raw draw --
        so a restored generator continues bit-for-bit.
        """
        return {"state": self._state, "initial_seed": self._initial_seed}

    def restore_state(self, state: dict) -> None:
        """Re-position the stream from a :meth:`snapshot_state` tree."""
        value = int(state["state"])
        if not 0 < value < MODULUS:
            raise ReproError(
                f"Park-Miller snapshot state must be in (0, 2**31-1), got {value}")
        initial = int(state.get("initial_seed", value))
        if not 0 < initial < MODULUS:
            raise ReproError(
                f"Park-Miller snapshot seed must be in (0, 2**31-1), got {initial}")
        self._state = value
        self._initial_seed = initial

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ParkMillerPRNG(state={self._state})"
