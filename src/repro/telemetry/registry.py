"""Central metric registry: counters, gauges, histograms.

One :class:`MetricRegistry` per :class:`~repro.telemetry.probe.Telemetry`
hub collects every instrument the probes record into, keyed by name
plus a sorted label set (Prometheus-style identity: ``name{k="v"}``).
A histogram instrument *is* a :class:`repro.metrics.histogram.Histogram`
(the one fixed-bin digest, with its upper-bin-edge percentile rule), so
the wake-to-dispatch latency distribution exported here is the same
shape as the paper's Figure 11 waiting-time histograms and merges
across cores (:mod:`repro.telemetry.aggregate`) without conversion.

Instruments are deterministic: values derive only from virtual-time
events, registration order is the call order of the (deterministic)
simulation, and exporters sort by full name -- same seed, same bytes.
"""

from __future__ import annotations

import re
from typing import Any, Dict, List, Optional, Tuple, Union

from repro.errors import ReproError
from repro.metrics.histogram import Histogram

__all__ = ["Counter", "Gauge", "HistogramInstrument", "MetricRegistry",
           "parse_full_name", "render_name"]


def render_name(name: str, labels: Optional[Dict[str, str]] = None) -> str:
    """Canonical instrument identity: ``name{k="v",...}``, keys sorted."""
    if not labels:
        return name
    inner = ",".join(f'{key}="{labels[key]}"' for key in sorted(labels))
    return f"{name}{{{inner}}}"


_LABEL_PAIR_RE = re.compile(r'([^=,{}]+)="([^"]*)"')


def parse_full_name(full_name: str) -> Tuple[str, Dict[str, str]]:
    """Inverse of :func:`render_name`: ``name{k="v"}`` -> (name, labels).

    Registry identities never contain quotes inside label values (they
    are built by :func:`render_name` from plain strings), so a simple
    quoted-pair scan is exact.
    """
    brace = full_name.find("{")
    if brace < 0:
        return full_name, {}
    labels = {match.group(1): match.group(2)
              for match in _LABEL_PAIR_RE.finditer(full_name[brace:])}
    return full_name[:brace], labels


class Counter:
    """A monotonically increasing count of events."""

    kind = "counter"

    def __init__(self, full_name: str, help: str = "") -> None:
        self.full_name = full_name
        self.help = help
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        """Add ``amount`` (must be non-negative: counters only go up;
        NaN is refused with the negatives)."""
        if not amount >= 0:
            raise ReproError(
                f"counter {self.full_name!r} cannot decrease "
                f"(inc by {amount})"
            )
        self.value += amount

    def snapshot_state(self) -> Dict[str, Any]:
        return {"kind": self.kind, "value": self.value}


class Gauge:
    """A value that can go up and down (queue depth, open spans)."""

    kind = "gauge"

    def __init__(self, full_name: str, help: str = "") -> None:
        self.full_name = full_name
        self.help = help
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = value

    def add(self, amount: float) -> None:
        self.value += amount

    def snapshot_state(self) -> Dict[str, Any]:
        return {"kind": self.kind, "value": self.value}


class HistogramInstrument(Histogram):
    """A fixed-bin distribution: the shared digest under a registry
    identity (``full_name``/``help``/``kind``)."""

    kind = "histogram"

    def __init__(self, full_name: str, bin_width: float,
                 help: str = "") -> None:
        super().__init__(bin_width, name=full_name)
        self.full_name = full_name
        self.help = help

    # An attribute of this class too, so that a wrapper installed on
    # ``HistogramInstrument.record`` times the registry's histograms
    # and not every digest in the process.
    record = Histogram.record

    def snapshot_state(self) -> Dict[str, Any]:
        return {"kind": self.kind, **super().snapshot_state()}


Instrument = Union[Counter, Gauge, HistogramInstrument]


class MetricRegistry:
    """Get-or-create registry of named instruments.

    Asking twice for the same (name, labels) returns the same
    instrument; asking for an existing name with a different kind (or a
    histogram with a different bin width) is a wiring bug and raises.
    """

    def __init__(self) -> None:
        self._instruments: Dict[str, Instrument] = {}

    def counter(self, name: str, labels: Optional[Dict[str, str]] = None,
                help: str = "") -> Counter:
        return self._get_or_create(Counter, render_name(name, labels), help)

    def gauge(self, name: str, labels: Optional[Dict[str, str]] = None,
              help: str = "") -> Gauge:
        return self._get_or_create(Gauge, render_name(name, labels), help)

    def histogram(self, name: str, bin_width: float,
                  labels: Optional[Dict[str, str]] = None,
                  help: str = "") -> HistogramInstrument:
        instrument = self._get_or_create(
            HistogramInstrument, render_name(name, labels), help, bin_width)
        if instrument.bin_width != bin_width:
            raise ReproError(
                f"histogram {instrument.full_name!r} re-registered with "
                f"bin width {bin_width:g} (was {instrument.bin_width:g})")
        return instrument

    # -- views ---------------------------------------------------------------

    def get(self, name: str,
            labels: Optional[Dict[str, str]] = None) -> Optional[Instrument]:
        """Look up an instrument without creating it."""
        return self._instruments.get(render_name(name, labels))

    def instruments(self) -> List[Instrument]:
        """All instruments sorted by full name (export order)."""
        return [self._instruments[name]
                for name in sorted(self._instruments)]

    def __len__(self) -> int:
        return len(self._instruments)

    def as_dict(self) -> Dict[str, Dict[str, Any]]:
        """full name -> snapshot, sorted (for JSONL export and tests)."""
        return {instrument.full_name: instrument.snapshot_state()
                for instrument in self.instruments()}

    def changed_since(self, seen: Dict[str, Any]) -> Dict[str, Dict[str, Any]]:
        """full name -> snapshot of each instrument that moved since
        ``seen`` last came through here (``seen`` is the caller's
        baseline, empty at first, updated in place).

        Snapshots carry new absolute values, so applying one twice is
        harmless.  A histogram's lists only the bins that grew, beside
        its whole ``count`` and ``mean``; with an empty baseline the
        result is :meth:`as_dict`.
        """
        changed: Dict[str, Dict[str, Any]] = {}
        for full_name, instrument in self._instruments.items():
            if instrument.kind != "histogram":
                if seen.get(full_name) != instrument.value:
                    seen[full_name] = instrument.value
                    changed[full_name] = instrument.snapshot_state()
                continue
            count, counts = seen.get(full_name, (None, {}))
            if count == instrument.count:
                continue
            seen[full_name] = (instrument.count, counts)
            width = instrument.bin_width
            grown = []
            for index in sorted(instrument.counts):
                n = instrument.counts[index]
                if counts.get(index) != n:
                    counts[index] = n
                    grown.append([index * width, (index + 1) * width, n])
            changed[full_name] = {"kind": "histogram",
                                  "count": instrument.count,
                                  "mean": instrument.mean(), "bins": grown}
        return changed

    def snapshot_state(self) -> Dict[str, Any]:
        return {"instruments": self.as_dict()}

    # -- internals -----------------------------------------------------------

    def _get_or_create(self, cls: type, full_name: str, help: str,
                       *args: Any) -> Any:
        existing = self._instruments.get(full_name)
        if existing is not None:
            if not isinstance(existing, cls):
                raise ReproError(
                    f"metric {full_name!r} is a {existing.kind}, not a "
                    f"{cls.kind}"
                )
            return existing
        instrument = cls(full_name, *args, help)
        self._instruments[full_name] = instrument
        return instrument

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<MetricRegistry instruments={len(self._instruments)}>"
