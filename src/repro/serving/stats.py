"""Bounded per-class latency accounting for the serving arena.

The arena replays millions of requests, so per-request samples cannot
be kept.  Every latency here goes into a
:class:`repro.metrics.histogram.Histogram` -- the digest the telemetry
registry and the cross-shard view use too: O(distinct bins) memory
regardless of traffic, and percentiles resolved to the upper bin edge,
so two runs that fill identical bins report identical quantiles.
"""

from __future__ import annotations

from typing import Any, Dict, List

from repro.metrics.histogram import Histogram

__all__ = ["ServingStats", "digest_state"]


def digest_state(digest: Histogram) -> Dict[str, Any]:
    """Typed state tree of one latency digest (see ``repro.checkpoint``):
    bins by index, with the exact running sum and maximum."""
    return {
        "bin_ms": digest.bin_width,
        "count": digest.count,
        "total_ms": digest.total,
        "max_ms": digest.max,
        "bins": [[index, digest.counts[index]]
                 for index in sorted(digest.counts)],
    }


class ServingStats:
    """Per-service-class counters and latency digests for one arena.

    Two digests per class: ``wake`` (scheduler wake->dispatch latency,
    fed by the recorder probe) and ``e2e`` (arrival->reply, fed by the
    frontend on completion).  Offered = admitted + shed; completed <=
    admitted (the difference is queued in-flight work at the horizon --
    expected to grow without bound under overload).
    """

    def __init__(self, bin_ms: float = 5.0) -> None:
        self.bin_ms = float(bin_ms)
        self.offered: Dict[str, int] = {}
        self.shed: Dict[str, int] = {}
        self.completed: Dict[str, int] = {}
        self.e2e: Dict[str, Histogram] = {}
        self.wake: Dict[str, Histogram] = {}

    def ensure_class(self, name: str) -> None:
        """Register ``name`` (zero counts, empty digests).  The recording
        hooks call it only for a class they have not seen, so a record
        pays one dict lookup for it, not a frame."""
        if name not in self.offered:
            self.offered[name] = 0
            self.shed[name] = 0
            self.completed[name] = 0
            self.e2e[name] = Histogram(self.bin_ms, f"e2e:{name}")
            self.wake[name] = Histogram(self.bin_ms, f"wake:{name}")

    # -- recording hooks --------------------------------------------------

    def record_offered(self, name: str) -> None:
        if name not in self.offered:
            self.ensure_class(name)
        self.offered[name] += 1

    def record_shed(self, name: str) -> None:
        if name not in self.offered:
            self.ensure_class(name)
        self.shed[name] += 1

    def record_completion(self, name: str, e2e_ms: float) -> None:
        if name not in self.offered:
            self.ensure_class(name)
        self.completed[name] += 1
        self.e2e[name].record(e2e_ms)

    def record_wake(self, name: str, latency_ms: float) -> None:
        if name not in self.offered:
            self.ensure_class(name)
        self.wake[name].record(latency_ms)

    # -- reporting ----------------------------------------------------------

    def classes(self) -> List[str]:
        return sorted(self.offered)

    def row(self, name: str) -> Dict[str, Any]:
        """One deterministic report row for a class."""
        wake = self.wake[name]
        e2e = self.e2e[name]
        return {
            "class": name,
            "offered": self.offered[name],
            "shed": self.shed[name],
            "completed": self.completed[name],
            "wake_p99_ms": wake.percentile(99.0),
            "wake_p999_ms": wake.percentile(99.9),
            "e2e_p99_ms": e2e.percentile(99.0),
            "e2e_p999_ms": e2e.percentile(99.9),
            "e2e_mean_ms": e2e.mean(),
        }

    def rows(self) -> List[Dict[str, Any]]:
        return [self.row(name) for name in self.classes()]

    def merge(self, other: "ServingStats") -> None:
        """Fold another stats object in (per-core -> whole-plan view)."""
        for name in other.classes():
            self.ensure_class(name)
            self.offered[name] += other.offered[name]
            self.shed[name] += other.shed[name]
            self.completed[name] += other.completed[name]
            self.e2e[name].merge(other.e2e[name])
            self.wake[name].merge(other.wake[name])

    def snapshot_state(self) -> Dict[str, Any]:
        """Typed state tree for checkpointing (see ``repro.checkpoint``)."""
        return {
            "bin_ms": self.bin_ms,
            "classes": {
                name: {
                    "offered": self.offered[name],
                    "shed": self.shed[name],
                    "completed": self.completed[name],
                    "e2e": digest_state(self.e2e[name]),
                    "wake": digest_state(self.wake[name]),
                }
                for name in self.classes()
            },
        }
