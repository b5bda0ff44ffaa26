"""The one fixed-bin latency digest (Figure 11's waiting-time histogram).

The mutex experiment, the telemetry registry, the serving arena and the
cross-shard merged view all record into a :class:`Histogram`: counts per
fixed-width bin plus ``count`` / ``total`` / ``max``, so memory is
O(distinct bins) and two digests of one width merge by adding counts.
No raw observation is kept, so a percentile is the **upper edge** of
the bin holding the nearest-rank observation: a core's digest, its wire
snapshot and the merge of several answer alike, and never under-report.
"""

from __future__ import annotations

import math
from typing import Any, Dict, List, Optional, Tuple

from repro.errors import ReproError

__all__ = ["Histogram", "checked_width"]


def checked_width(width: float, name: str = "histogram") -> float:
    """``width`` as a bin width: positive and finite, or refused by
    ``name`` (written so that NaN fails too: ``nan <= 0`` is false)."""
    if not 0 < width < math.inf:
        raise ReproError(
            f"{name}: bin width must be positive and finite: {width}")
    return width


class Histogram:
    """Mergeable digest over fixed-width bins, bounded in memory."""

    def __init__(self, bin_width: float, name: str = "histogram") -> None:
        self.bin_width = checked_width(bin_width, f"histogram {name!r}")
        self.name = name
        self.count = 0
        #: Added to in arrival order: plain IEEE addition, whichever way
        #: the interpreter's ``sum()`` rounds (3.12+ compensates).
        self.total = 0.0
        self.max = 0.0
        #: bin index -> observations; index = floor(value / bin_width).
        self.counts: Dict[int, int] = {}

    @staticmethod
    def from_snapshot(snapshot: Dict[str, Any],
                      name: str = "histogram") -> "Histogram":
        """The digest a :meth:`snapshot_state` tree describes.

        The tree has bin edges, not the width: that is read off the
        first bin and every bin must sit on its grid (exact for widths
        whose multiples are exact in binary: 5 ms, 250 ms, ...).
        ``total`` comes back as ``mean * count``, ``max`` as the top
        edge; a tree without bins is an empty digest of unit width.
        A tree that is not of that shape is refused by name.
        """
        def number(value: Any) -> bool:
            return isinstance(value, (int, float)) and math.isfinite(value)

        for field in ("bins", "count", "mean"):
            if not isinstance(snapshot, dict) or field not in snapshot:
                raise ReproError(
                    f"histogram {name!r}: snapshot has no {field!r} field")
        bins = snapshot["bins"]
        if not isinstance(bins, (list, tuple)) or not (
                number(snapshot["count"]) and number(snapshot["mean"])):
            raise ReproError(
                f"histogram {name!r}: snapshot needs a list of bins and a "
                f"numeric count and mean: {snapshot!r}")
        for entry in bins:
            if not (isinstance(entry, (list, tuple)) and len(entry) == 3
                    and all(map(number, entry))):
                raise ReproError(
                    f"histogram {name!r}: bin {entry!r} is not a "
                    f"[start, end, count] triple of numbers")
        if not bins:
            return Histogram(1.0, name)
        width = bins[0][1] - bins[0][0]
        digest = Histogram(width, name)
        for start, end, n in bins:
            index = round(start / width)
            if index * width != start or (index + 1) * width != end:
                raise ReproError(
                    f"histogram {name!r}: bin [{start:g}, {end:g}) is not "
                    f"on the {width:g}-wide grid of its first bin")
            digest.counts[index] = int(n)
        digest.count = int(snapshot["count"])
        digest.total = float(snapshot["mean"]) * digest.count
        digest.max = bins[-1][1]
        return digest

    def record(self, value: float) -> None:
        """Record one observation (a non-negative, finite number)."""
        if not value >= 0:  # negative, or NaN
            raise ReproError(
                f"histogram {self.name!r}: values must be non-negative: "
                f"{value}")
        # Laid out so that an accepted value runs no opcode the ``try``
        # added (CPython 3.11): the body on the ``try`` line needs no
        # line marker, and with the rest under ``else`` nothing jumps
        # over the handler.
        try: index = int(value // self.bin_width)
        except (ValueError, OverflowError):
            raise ReproError(
                f"histogram {self.name!r}: no bin holds {value}") from None
        else:
            self.counts[index] = self.counts.get(index, 0) + 1
            self.count += 1
            self.total += value
            if value > self.max:
                self.max = value

    def mean(self) -> float:
        """Arithmetic mean of the observations (0 when empty)."""
        return self.total / self.count if self.count else 0.0

    def bins(self) -> List[Tuple[float, float, int]]:
        """Sorted (bin_start, bin_end, count) triples, empty bins omitted."""
        return [
            (i * self.bin_width, (i + 1) * self.bin_width, self.counts[i])
            for i in sorted(self.counts)
        ]

    def percentile(self, q: float) -> float:
        """q-th percentile (0 <= q <= 100) by nearest rank over the
        bins, as the upper edge of the rank's bin; 0 when empty."""
        if not 0 <= q <= 100:
            raise ReproError(f"percentile must be in [0, 100]: {q}")
        rank = max(1, math.ceil(q * self.count / 100.0))
        seen = 0
        for index in sorted(self.counts):
            seen += self.counts[index]
            if seen >= rank:
                return (index + 1) * self.bin_width
        return 0.0

    def merge(self, other: "Histogram") -> None:
        """Fold ``other``'s observations in (per-core -> whole view)."""
        if not other.count:
            return
        self._check_same_grid(other)
        for index, n in other.counts.items():
            self.counts[index] = self.counts.get(index, 0) + n
        self.count += other.count
        self.total += other.total
        if other.max > self.max:
            self.max = other.max

    def copy(self) -> "Histogram":
        """An independent digest of the same observations."""
        clone = Histogram(self.bin_width, self.name)
        clone.merge(self)
        return clone

    def since(self, baseline: Optional["Histogram"]) -> "Histogram":
        """What was recorded after ``baseline``, an earlier :meth:`copy`
        (None: everything).  Only bins that grew count, so a baseline
        that is no prefix (a core's frame went missing) shrinks the
        window instead of going negative; ``max`` stays cumulative."""
        if baseline is None or not baseline.count:
            return self.copy()
        self._check_same_grid(baseline)
        window = Histogram(self.bin_width, self.name)
        for index, n in self.counts.items():
            gained = n - baseline.counts.get(index, 0)
            if gained > 0:
                window.counts[index] = gained
                window.count += gained
        window.total = self.total - baseline.total
        window.max = self.max
        return window

    def snapshot_state(self) -> Dict[str, Any]:
        """The form obs frames and the JSONL export carry."""
        return {
            "count": self.count,
            "mean": self.mean(),
            "bins": [[start, end, n] for start, end, n in self.bins()],
        }

    def _check_same_grid(self, other: "Histogram") -> None:
        if other.bin_width != self.bin_width:
            raise ReproError(
                f"histogram {self.name!r} has {self.bin_width:g}-wide bins "
                f"and {other.name!r} {other.bin_width:g}-wide ones: their "
                f"counts cannot be combined")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Histogram {self.name!r} n={self.count} mean={self.mean():.1f}>"
