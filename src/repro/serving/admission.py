"""Ticket-priced admission control: deterministic load shedding.

Under open-loop overload *something* must give; the arena gives at the
front door.  Each service class owns a token bucket whose refill rate
is the class's **ticket share** of the provisioned capacity -- tickets
price admission exactly as they price CPU (the paper's "tickets as a
universal resource right", section 3.1).  Refill is computed
analytically at each request's *scheduled* arrival instant, so the
admit/shed decision is a pure function of the arrival trace and the
bucket parameters -- independent of when the pump thread actually got
dispatched -- which keeps the shed pattern bit-identical across
policies, runs, and shard placements.
"""

from __future__ import annotations

import math
from typing import Any, Dict, List, Mapping, Tuple

from repro.errors import ReproError

__all__ = ["TokenBucket", "AdmissionController", "admission_rates"]

#: Admission provisions this multiple of the CPU capacity, divided
#: among the classes by ticket share.
HEADROOM = 1.2
#: Seconds of a class's admission rate its bucket holds as burst.
BURST_S = 0.5


class TokenBucket:
    """Analytic token bucket clocked by scheduled arrival instants."""

    def __init__(self, rate_per_s: float, burst: float) -> None:
        # ``nan < inf`` is false, so NaN fails both checks.
        if not 0 < rate_per_s < math.inf:
            raise ReproError(
                f"refill rate must be positive and finite: {rate_per_s}")
        if not 1.0 <= burst < math.inf:
            raise ReproError(
                f"burst must be finite and admit at least one: {burst}")
        self.rate_per_s = float(rate_per_s)
        self.burst = float(burst)
        self.tokens = float(burst)
        self.clock_ms = 0.0
        self.admitted = 0
        self.shed = 0

    def admit(self, at_ms: float, cost: float = 1.0) -> bool:
        """Charge ``cost`` tokens at instant ``at_ms``; False = shed.

        ``at_ms`` instants must be non-decreasing per bucket (arrival
        streams are monotone by construction); a stale instant refills
        nothing rather than rewinding the bucket.
        """
        if at_ms > self.clock_ms:
            elapsed_ms = at_ms - self.clock_ms
            self.clock_ms = at_ms
            self.tokens = min(
                self.burst,
                self.tokens + elapsed_ms * self.rate_per_s / 1000.0)
        if self.tokens >= cost:
            self.tokens -= cost
            self.admitted += 1
            return True
        self.shed += 1
        return False

    def snapshot_state(self) -> Dict[str, Any]:
        """Typed state tree for checkpointing (see ``repro.checkpoint``)."""
        return {
            "rate_per_s": self.rate_per_s,
            "burst": self.burst,
            "tokens": self.tokens,
            "clock_ms": self.clock_ms,
            "admitted": self.admitted,
            "shed": self.shed,
        }


def admission_rates(capacity_rps: float, shares: Mapping[str, float]
                    ) -> Dict[str, Tuple[float, float]]:
    """Each class's ``(rate_per_s, burst)``, by class name.

    ``capacity_rps * HEADROOM`` requests/second of admission are
    divided among the classes in proportion to their ticket amounts:
    a class holding p% of tickets may sustain p% of the provisioned
    admission rate, with ``BURST_S`` seconds of that rate (at least
    one request) as burst allowance.  The single-kernel arena and the
    sharded serving plan both price admission here.
    """
    if not 0 < capacity_rps < math.inf:
        raise ReproError(
            f"capacity must be positive and finite: {capacity_rps}")
    if not shares:
        raise ReproError("admission needs at least one class")
    total = float(sum(shares.values()))
    if not 0 < total < math.inf:
        raise ReproError(
            f"ticket shares must sum positive and finite: {total}")
    rates = {}
    for name in sorted(shares):
        rate = capacity_rps * HEADROOM * float(shares[name]) / total
        rates[name] = (rate, max(1.0, rate * BURST_S))
    return rates


class AdmissionController:
    """Per-class token buckets priced by :func:`admission_rates`."""

    def __init__(self, capacity_rps: float,
                 shares: Mapping[str, float]) -> None:
        self.capacity_rps = float(capacity_rps)
        self.buckets: Dict[str, TokenBucket] = {
            name: TokenBucket(rate, burst)
            for name, (rate, burst)
            in admission_rates(capacity_rps, shares).items()}

    def admit(self, name: str, at_ms: float) -> bool:
        """Admit/shed one request of class ``name`` arriving at ``at_ms``."""
        try:
            bucket = self.buckets[name]
        except KeyError:
            raise ReproError(f"no admission bucket for class {name!r}; "
                             f"known: {sorted(self.buckets)}") from None
        return bucket.admit(at_ms)

    def rows(self) -> List[Dict[str, Any]]:
        """Deterministic per-class admission summary."""
        return [{
            "class": name,
            "rate_per_s": bucket.rate_per_s,
            "admitted": bucket.admitted,
            "shed": bucket.shed,
        } for name, bucket in sorted(self.buckets.items())]

    def snapshot_state(self) -> Dict[str, Any]:
        """Typed state tree for checkpointing (see ``repro.checkpoint``)."""
        return {
            "capacity_rps": self.capacity_rps,
            # Constants; the keys stay because pinned state trees
            # contain them.
            "headroom": HEADROOM,
            "burst_s": BURST_S,
            "buckets": {name: bucket.snapshot_state()
                        for name, bucket in sorted(self.buckets.items())},
        }
