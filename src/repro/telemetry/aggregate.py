"""Barrier-mediated cross-shard metric aggregation.

The sharded engine (``repro.shard``) gives every core a private
:class:`~repro.telemetry.probe.Telemetry` hub, so per-core metrics are
deterministic but *local*.  This module folds them into one global
view at every epoch barrier:

* Each :class:`~repro.shard.core.ShardCore` answers every slice
  command with an **obs frame** -- registry instruments, per-thread
  accounting, shard counters and, when a flight recorder is armed, a
  bounded ring of recent replay entries/spans -- as plain JSON data.
  Frames ride the same pipes as barrier payloads under the ``mp``
  backends and are JSON-round-tripped in-process, so no object identity
  ever crosses a core boundary.
* Frames are **delta-state**: a frame lists only the leaves that
  changed since the core's previous frame, each with its new *absolute*
  value (a counter's value, a grown bin's count, a whole thread row),
  never an arithmetic difference.  So what crosses a barrier and what
  the parent does with it cost what was written in the epoch, not the
  history; folding is exact (no float is recomputed on this side),
  folding a frame twice is harmless, and a complete frame is just the
  delta from nothing -- there is one format.  The core's baseline is
  part of its replayed state: it moves only on the logged slice
  commands, so supervisor respawn-and-replay recovery (and full inline
  degradation) hands a retried command the same delta.
* :class:`ObsAggregator` folds each frame into **one running
  cumulative frame per core** and drops it, keeping a four-field index
  row per slice.  The fold is the only reader of a frame: while it
  replaces a grown ``repro_wake_to_dispatch_ms`` bin it adds the bin's
  gain to one digest per share band, merged across cores, and the
  online SLO watchdogs (:mod:`repro.telemetry.slo`) sample the running
  frames and those digests, holding their own short window.  The slice
  index is the run's one record of barrier instants (with payload
  counts), which the stitched trace draws.  The running frames merge
  into a global registry view: counters and gauges sum, histograms
  come back as the same
  :class:`~repro.metrics.histogram.Histogram` digest the cores
  recorded into and merge bin-wise (one percentile rule, per-core and
  merged), and derived gauges -- global fairness error and
  ticket-conservation totals -- are appended.

Everything here is observation-only: aggregation reads frames that the
cores already produced and never feeds anything back, so a run with
``obs`` enabled has the same canonical history as one without.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Any, Dict, List, Optional

from repro.errors import ReproError
from repro.metrics.histogram import Histogram
from repro.telemetry.registry import HistogramInstrument
from repro.telemetry.slo import SloEvaluator

__all__ = [
    "FRAME_FORMAT",
    "FRAME_VERSION",
    "GlobalMetricsView",
    "MergedScalar",
    "ObsAggregator",
    "fairness_summary",
    "merge_frames",
]

FRAME_FORMAT = "repro-obs-frame"
FRAME_VERSION = 1

#: Capacity of the per-core flight-recorder rings (recent replay
#: entries and recent completed spans; frames of an armed run carry
#: what was added since the previous frame, at most this many).
RING_ENTRIES = 32
RING_SPANS = 16

#: Base name of the per-band latency histogram the kernel probe records
#: (the one the SLO watchdogs read merged across cores).
_LATENCY_METRIC = "repro_wake_to_dispatch_ms"


class MergedScalar:
    """A counter/gauge summed across cores (registry-instrument shaped)."""

    __slots__ = ("full_name", "kind", "help", "value")

    def __init__(self, full_name: str, kind: str, value: float,
                 help: str = "") -> None:
        self.full_name = full_name
        self.kind = kind
        self.value = value
        self.help = help

    def snapshot_state(self) -> Dict[str, Any]:
        return {"kind": self.kind, "value": self.value}


class GlobalMetricsView:
    """Registry-shaped read-only view over merged instruments.

    Exposes exactly the surface the exporters consume
    (:meth:`instruments`, :meth:`as_dict`, :meth:`get`), so
    :func:`repro.telemetry.exporters.export_prometheus` serves the
    global registry without knowing it is an aggregate.
    """

    def __init__(self, instruments: Dict[str, Any]) -> None:
        self._instruments = instruments

    def instruments(self) -> List[Any]:
        return [self._instruments[name]
                for name in sorted(self._instruments)]

    def get(self, full_name: str) -> Optional[Any]:
        return self._instruments.get(full_name)

    def as_dict(self) -> Dict[str, Dict[str, Any]]:
        return {instrument.full_name: instrument.snapshot_state()
                for instrument in self.instruments()}

    def __len__(self) -> int:
        return len(self._instruments)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<GlobalMetricsView instruments={len(self._instruments)}>"


def _fold_histograms(full_name: str,
                     snapshots: List[Dict[str, Any]]) -> HistogramInstrument:
    """One instrument from per-core histogram snapshots (core order).

    The mean stays ``sum(mean_i * count_i) / sum(count_i)``; cores that
    binned the metric at different widths are a wiring bug and raise.
    """
    parts = [Histogram.from_snapshot(snapshot, full_name)
             for snapshot in snapshots]
    width = next((part.bin_width for part in parts if part.count),
                 parts[0].bin_width)
    merged = HistogramInstrument(full_name, width)
    for part in parts:
        merged.merge(part)
    return merged


def merge_frames(frames: List[Dict[str, Any]]) -> GlobalMetricsView:
    """Fold per-core frames (canonical core order) into a global view.

    Counters and gauges sum; histograms merge bin-wise.  Kind or
    bin-width conflicts across cores are wiring bugs and raise.
    """
    grouped: Dict[str, List[Dict[str, Any]]] = {}
    for frame in sorted(frames, key=lambda f: f["core"]):
        for full_name, snapshot in frame.get("metrics", {}).items():
            grouped.setdefault(full_name, []).append(snapshot)
    merged: Dict[str, Any] = {}
    for full_name, snapshots in grouped.items():
        kinds = {snapshot["kind"] for snapshot in snapshots}
        if len(kinds) != 1:
            raise ReproError(
                f"metric {full_name!r} has conflicting kinds across "
                f"cores: {sorted(kinds)}")
        kind = kinds.pop()
        if kind == "histogram":
            merged[full_name] = _fold_histograms(full_name, snapshots)
        else:
            value = 0.0
            for snapshot in snapshots:
                value += float(snapshot["value"])
            merged[full_name] = MergedScalar(full_name, kind, value)
    for gauge in _derived_gauges(frames):
        merged[gauge.full_name] = gauge
    return GlobalMetricsView(merged)


def fairness_summary(frames: List[Dict[str, Any]]) -> Dict[str, Any]:
    """Proportional-share fairness over the latest frames.

    Entitlement and usage are normalized **within each core**: every
    core runs its own lottery, so a thread's entitlement is its ticket
    share of the alive tickets *on its core* and its usage is its
    share of the CPU *its core* consumed.  (Cross-core ticket stakes
    never race each other -- a global normalization would grade the
    placement, not the scheduler.)  The paper's claim is that these
    converge for competing threads, so the maximum and mean absolute
    error (and the maximum relative error over funded threads) are the
    headline gauges; ``tickets_total``/``cpu_ms_total`` stay global,
    serving the ticket-conservation gauges.
    """
    threads: List[Dict[str, Any]] = []
    for frame in sorted(frames, key=lambda f: f["core"]):
        for entry in frame.get("threads", []):
            threads.append({**entry, "core": frame["core"]})
    alive = [t for t in threads if t["alive"]]
    core_tickets: Dict[int, float] = {}
    core_cpu: Dict[int, float] = {}
    for t in alive:
        core_tickets[t["core"]] = (core_tickets.get(t["core"], 0.0)
                                   + t["tickets"])
    for t in threads:
        core_cpu[t["core"]] = core_cpu.get(t["core"], 0.0) + t["cpu_ms"]
    per_thread: List[Dict[str, Any]] = []
    max_abs = 0.0
    sum_abs = 0.0
    max_rel = 0.0
    funded = 0
    for t in alive:
        tickets_on_core = core_tickets.get(t["core"], 0.0)
        cpu_on_core = core_cpu.get(t["core"], 0.0)
        entitlement = (t["tickets"] / tickets_on_core
                       if tickets_on_core else 0.0)
        usage = (t["cpu_ms"] / cpu_on_core) if cpu_on_core else 0.0
        abs_error = abs(usage - entitlement)
        rel_error = (abs_error / entitlement) if entitlement > 0 else 0.0
        if entitlement > 0:
            funded += 1
            max_abs = max(max_abs, abs_error)
            sum_abs += abs_error
            max_rel = max(max_rel, rel_error)
        per_thread.append({
            "core": t["core"], "tid": t["tid"], "name": t["name"],
            "tickets": t["tickets"], "cpu_ms": t["cpu_ms"],
            "entitlement": entitlement, "usage": usage,
            "abs_error": abs_error, "rel_error": rel_error,
        })
    per_thread.sort(key=lambda t: (t["core"], t["tid"]))
    return {
        "threads": per_thread,
        "alive": len(alive),
        "funded": funded,
        "tickets_total": sum(t["tickets"] for t in alive),
        "cpu_ms_total": sum(t["cpu_ms"] for t in threads),
        "max_abs_error": max_abs,
        "mean_abs_error": (sum_abs / funded) if funded else 0.0,
        "max_rel_error": max_rel,
    }


def _derived_gauges(frames: List[Dict[str, Any]]) -> List[MergedScalar]:
    """Global gauges computed at merge time (fairness + conservation)."""
    fairness = fairness_summary(frames)
    shard_totals = {"payloads_applied": 0, "migrations_out": 0,
                    "evacuations": 0, "casualties": 0}
    for frame in frames:
        shard = frame.get("shard", {})
        for key in shard_totals:
            shard_totals[key] += int(shard.get(key, 0))
    gauges = [
        MergedScalar("repro_obs_fairness_abs_error_max", "gauge",
                     fairness["max_abs_error"],
                     help="Global max |cpu share - ticket share|."),
        MergedScalar("repro_obs_fairness_abs_error_mean", "gauge",
                     fairness["mean_abs_error"],
                     help="Global mean |cpu share - ticket share|."),
        MergedScalar("repro_obs_fairness_rel_error_max", "gauge",
                     fairness["max_rel_error"],
                     help="Global max relative fairness error."),
        MergedScalar("repro_obs_tickets_alive", "gauge",
                     fairness["tickets_total"],
                     help="Ticket conservation: global alive nominal "
                          "funding."),
        MergedScalar("repro_obs_threads_alive", "gauge",
                     float(fairness["alive"]),
                     help="Alive threads across all cores."),
        MergedScalar("repro_obs_cpu_ms", "gauge",
                     fairness["cpu_ms_total"],
                     help="Virtual CPU ms consumed across all cores."),
    ]
    for key, value in sorted(shard_totals.items()):
        gauges.append(MergedScalar(
            f"repro_obs_shard_{key}", "gauge", float(value),
            help=f"Sum of per-core shard counter {key!r}."))
    return gauges


class ObsAggregator:
    """Running per-core cumulative frames, a slice index, and the SLO
    watchdogs, all fed by :meth:`observe`.

    Frames are folded in and dropped: retained are one cumulative
    frame per core, one merged latency digest per share band, one
    ``{seq, time, kind, payloads}`` row per slice, and the evaluator's
    window.  Inside a running frame a changed
    thread row or instrument snapshot is *replaced*, never mutated, so
    the copies :meth:`latest_frames` hands out stay what they were.

    One row is recorded per instant in canonical order, and observing
    an instant again replaces its row (observation stays idempotent).
    What outlasts an instant is what an uninterrupted run records
    there, so that nothing reported depends on how ``advance`` was
    sliced: a stop point re-observing an epoch barrier refreshes the
    running frames only (row, payload count and SLO sample stay the
    barrier's), and a stop point's own row lasts until time moves on.
    """

    def __init__(self) -> None:
        self._rows: List[Dict[str, Any]] = []
        #: core -> its cumulative frame; thread rows keyed by tid (in
        #: the core's thread order: threads are only ever appended).
        self._frames: Dict[int, Dict[str, Any]] = {}
        #: latency band full name -> its bins merged over the cores
        #: (counts only: no verdict reads a total or a max).
        self._latency: Dict[str, Histogram] = {}
        #: The online watchdogs (``slo.report()`` is the SLO report).
        self.slo = SloEvaluator(self._frames, self._latency)

    # -- recording ------------------------------------------------------------

    def observe(self, time: float, frames: List[Dict[str, Any]],
                payloads: int = 0, kind: str = "epoch") -> None:
        if not frames:
            return
        row = {"seq": len(self._rows), "time": float(time),
               "kind": kind, "payloads": int(payloads)}
        last = self._rows[-1] if self._rows else None
        if last is None or (last["kind"] == "epoch"
                            and last["time"] != row["time"]):
            self._rows.append(row)
        elif kind == "epoch" or last["kind"] == "stop":
            row["seq"] = last["seq"]
            self._rows[-1] = row
        for frame in sorted(frames, key=lambda frame: frame["core"]):
            self._fold(frame)
        self.slo.observe(row["time"], barrier=kind == "epoch")

    def _fold(self, delta: Dict[str, Any]) -> None:
        core = delta["core"]
        frame = self._frames.setdefault(
            core, {"metrics": {}, "threads": {}, "shard": {}})
        for key in ("format", "version", "core", "time"):
            if key in delta:
                frame[key] = delta[key]
        metrics = frame["metrics"]
        for full_name, snapshot in delta.get("metrics", {}).items():
            before = metrics.get(full_name)
            if snapshot["kind"] == "histogram":
                digest = self._digest(full_name, snapshot["bins"])
                if before is not None or digest is not None:
                    snapshot = {**snapshot, "bins": _fold_bins(
                        before["bins"] if before is not None else [],
                        snapshot["bins"], digest, core)}
            metrics[full_name] = snapshot
        for thread in delta.get("threads", ()):
            frame["threads"][thread["tid"]] = thread
        frame["shard"].update(delta.get("shard", {}))
        if "ring" in delta:
            ring = frame.get("ring", {"entries": [], "spans": []})
            frame["ring"] = {
                "entries": (ring["entries"]
                            + delta["ring"]["entries"])[-RING_ENTRIES:],
                "spans": (ring["spans"]
                          + delta["ring"]["spans"])[-RING_SPANS:],
            }

    def _digest(self, full_name: str,
                bins: List[List[Any]]) -> Optional[Histogram]:
        """The cross-core digest a latency band's bins merge into (None
        for any other histogram), made on the first bins seen."""
        digest = self._latency.get(full_name)
        if (digest is None and bins
                and full_name.partition("{")[0] == _LATENCY_METRIC):
            digest = self._latency[full_name] = Histogram(
                bins[0][1] - bins[0][0], full_name)
        return digest

    # -- views ----------------------------------------------------------------

    @property
    def rows(self) -> List[Dict[str, Any]]:
        """The slice index (no frames: they were folded away)."""
        return list(self._rows)

    def latest_frames(self) -> List[Dict[str, Any]]:
        """Each core's cumulative frame as of the last observation
        (canonical core order; copies, safe to keep)."""
        return [{**frame, "metrics": dict(frame["metrics"]),
                 "threads": list(frame["threads"].values()),
                 "shard": dict(frame["shard"])}
                for _, frame in sorted(self._frames.items())]

    def merged_metrics(self) -> GlobalMetricsView:
        return merge_frames(self.latest_frames())

    def fairness(self) -> Dict[str, Any]:
        return fairness_summary(self.latest_frames())

    def barrier_instants(self) -> List[Dict[str, Any]]:
        """(time, payloads) per epoch barrier, for the stitched trace.
        The current instant is left out: its barrier is listed once
        time has moved past it, whether or not the run stopped there."""
        now = self._rows[-1]["time"] if self._rows else None
        return [{"time": row["time"], "payloads": row["payloads"]}
                for row in self._rows
                if row["kind"] == "epoch" and row["time"] != now]

    def rings(self) -> List[Dict[str, Any]]:
        """Latest per-core flight-recorder rings (canonical core order)."""
        return [{"core": frame["core"], "time": frame["time"],
                 "ring": frame.get("ring", {})}
                for frame in self.latest_frames()]

    def __len__(self) -> int:
        return len(self._rows)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<ObsAggregator slices={len(self._rows)} "
                f"cores={len(self._frames)}>")


def _fold_bins(bins: List[List[Any]], grown: List[List[Any]],
               digest: Optional[Histogram], core: int) -> List[List[Any]]:
    """A copy of the sorted ``[start, end, n]`` list ``bins`` with each
    bin of ``grown`` replacing the one at its start, or inserted.  What
    each bin gained is added to ``digest`` too, when there is one: the
    cross-core digest, on whose grid core ``core``'s bins must lie."""
    folded = list(bins)
    for grown_bin in grown:
        start, end, n = grown_bin
        at = bisect_left(folded, grown_bin[:1])
        if at < len(folded) and folded[at][0] == start:
            gained = n - folded[at][2]
            folded[at] = grown_bin
        else:
            gained = n
            folded.insert(at, grown_bin)
        if digest is not None:
            width = digest.bin_width
            index = round(start / width)
            if index * width != start or (index + 1) * width != end:
                raise ReproError(
                    f"histogram {digest.name!r}: core {core}'s bin "
                    f"[{start:g}, {end:g}) is not on the {width:g}-wide "
                    f"grid the other cores use")
            digest.counts[index] = digest.counts.get(index, 0) + gained
            digest.count += gained
    return folded
