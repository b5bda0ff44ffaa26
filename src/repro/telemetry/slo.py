"""Deterministic SLO watchdogs over the aggregated observability stream.

The evaluator is fed the obs frames of one slice at a time (by the
:class:`~repro.telemetry.aggregate.ObsAggregator` at every barrier, or
from a list by :func:`evaluate_slo`), judges each slice against sliding
windows, and emits machine-checkable verdicts.  It keeps a sample of
the last ``max(window)`` slices and nothing older.  Everything is a
pure function of the frames, so two runs of the same plan/seed -- on
any backend -- produce byte-identical breach lists.

Three watchdogs:

* **fairness drift** -- over each ``fairness_window``-slice window,
  the CPU-share each *competing* thread earned (window delta of its
  cumulative ``cpu_ms``) is compared against its ticket share among
  the competitors **on its own core** (every core runs its own
  lottery; cross-core ticket stakes do not race each other).  A
  thread competes when it is alive at both window edges, funded, and
  either gained CPU or was runnable at both edges -- so a blocked
  server with a large ticket stake does not smear the error of the
  threads actually racing (Waldspurger & Weihl measure fairness over
  competing CPU-bound clients for the same reason).  Only **over-use**
  breaches: barrier-edge snapshots cannot distinguish voluntary
  blocking from unfair denial, so under-use is not graded -- denial
  of a persistently runnable thread is the starvation watchdog's job,
  while exceeding one's ticket share is an isolation violation no
  blocking pattern can excuse.  A thread is only
  judged when its *expected* dispatch count in the window
  (``ticket share x window dispatches``) reaches
  ``fairness_min_expected_dispatches``: lottery scheduling is
  probabilistically fair, with relative error shrinking as
  ``1/sqrt(expected)``, so verdicts below that floor would grade
  noise, not the scheduler.
* **latency ceiling** -- the p99 of the wake-to-dispatch latency per
  ticket-share band, computed from the *window delta* of the merged
  cumulative digest (``Histogram.since``), must stay under
  ``p99_ceiling_ms``.
  Windows with fewer than ``min_samples`` observations are skipped
  (a p99 over three points is noise, not a verdict).
* **starvation** -- a thread that is runnable at both edges of a
  ``starvation_window``-slice window without a single new dispatch is
  starving; the paper's proportional-share claim says every funded
  thread makes progress.
"""

from __future__ import annotations

from collections import deque
from dataclasses import asdict, dataclass
from typing import Any, Deque, Dict, List, Optional, Tuple

from repro.errors import ReproError
from repro.metrics.histogram import Histogram
from repro.telemetry.registry import parse_full_name

__all__ = ["SloPolicy", "SloEvaluator", "evaluate_slo"]

#: Base name of the per-band latency histogram the kernel probe records.
_LATENCY_METRIC = "repro_wake_to_dispatch_ms"


@dataclass(frozen=True)
class SloPolicy:
    """Thresholds and windows for the watchdogs (slice-denominated)."""

    fairness_rel_error_max: float = 0.9
    fairness_window: int = 4
    fairness_min_expected_dispatches: float = 10.0
    p99_ceiling_ms: float = 2000.0
    latency_window: int = 4
    min_samples: int = 20
    starvation_window: int = 6

    def __post_init__(self) -> None:
        if self.fairness_rel_error_max <= 0:
            raise ReproError("fairness_rel_error_max must be positive")
        if self.fairness_min_expected_dispatches < 0:
            raise ReproError(
                "fairness_min_expected_dispatches must be >= 0")
        if self.p99_ceiling_ms <= 0:
            raise ReproError("p99_ceiling_ms must be positive")
        if (self.fairness_window < 1 or self.latency_window < 1
                or self.starvation_window < 1):
            raise ReproError("SLO windows must be >= 1 slice")
        if self.min_samples < 1:
            raise ReproError("min_samples must be >= 1")


@dataclass(frozen=True)
class _Sample:
    """What the watchdogs read of one slice."""

    time: float
    #: core -> tid -> thread row, rows in the core's thread order.
    threads: Dict[int, Dict[int, Dict[str, Any]]]
    #: latency metric full name -> digest merged over the cores.
    latency: Dict[str, Histogram]


class SloEvaluator:
    """Judges slices as they are observed; collects deterministic
    breaches.

    :meth:`observe` takes the frames of a slice -- delta-state or
    complete, both fold alike (see ``ShardCore.obs_frame``) -- into a
    running view of what the watchdogs read: the latest row of every
    thread, and one ``repro_wake_to_dispatch_ms`` digest per band kept
    merged across cores by adding what each changed bin gained (only
    bin counts are kept; ``total``/``max`` are not, no verdict reads
    them).  A slice is committed lazily: :meth:`report` judges the
    running view as the slice of the current instant, and only when
    the next instant arrives is the sample taken at this one's barrier
    judged for good, against the committed samples, of which the last
    ``max(window)`` are kept.  So observing an instant again replaces
    its slice, and a stop point -- no barrier -- shows in the report
    while the run stands there and leaves no slice behind: what is
    committed is what an uninterrupted run observes.
    """

    def __init__(self, policy: Optional[SloPolicy] = None) -> None:
        self.policy = policy if policy is not None else SloPolicy()
        self._threads: Dict[int, Dict[int, Dict[str, Any]]] = {}
        self._latency: Dict[str, Histogram] = {}
        #: (core, latency metric) -> bin index -> count already merged.
        self._merged_bins: Dict[Tuple[int, str], Dict[int, int]] = {}
        self._window: Deque[_Sample] = deque(maxlen=max(
            self.policy.fairness_window, self.policy.latency_window,
            self.policy.starvation_window))
        #: The current instant, and the sample taken at its barrier.
        self._now: Optional[float] = None
        self._pending: Optional[_Sample] = None
        self._committed = 0
        self._checks = 0
        self._breaches: List[Dict[str, Any]] = []

    # -- feeding --------------------------------------------------------------

    def observe(self, time: float, frames: List[Dict[str, Any]],
                barrier: bool = True) -> None:
        """Fold one slice's frames in; a new instant first commits the
        previous one's barrier sample.  ``barrier=False`` (a stop
        point) only refreshes the running view."""
        if time != self._now and self._pending is not None:
            self._checks += self._judge(self._pending, self._breaches)
            self._window.append(self._pending)
            self._committed += 1
            self._pending = None
        for frame in sorted(frames, key=lambda frame: frame["core"]):
            self._fold(frame)
        self._now = time
        if barrier:
            self._pending = self._sample(time)

    def evaluate(self, slices: List[Dict[str, Any]]) -> Dict[str, Any]:
        """Observe ``slices`` (``{"time", "frames"}`` records in
        canonical order) on top of whatever was observed before, and
        report."""
        for record in slices:
            self.observe(record["time"], record["frames"])
        return self.report()

    def report(self) -> Dict[str, Any]:
        """Verdicts over everything observed (the current instant
        judged as the running view stands; nothing is committed)."""
        breaches = list(self._breaches)
        checks = self._checks
        if self._now is not None:
            checks += self._judge(self._sample(self._now), breaches)
        breaches.sort(key=lambda b: (b["time"], b["rule"], b["subject"]))
        counts: Dict[str, int] = {}
        for breach in breaches:
            counts[breach["rule"]] = counts.get(breach["rule"], 0) + 1
        return {
            "policy": asdict(self.policy),
            "slices": self._committed + (self._now is not None),
            "checks": checks,
            "breaches": breaches,
            "counts": counts,
            "ok": not breaches,
        }

    @property
    def retained(self) -> int:
        """Samples held: the committed window plus the pending one."""
        return len(self._window) + (self._pending is not None)

    # -- running view ---------------------------------------------------------

    def _fold(self, frame: Dict[str, Any]) -> None:
        core = frame["core"]
        rows = self._threads.setdefault(core, {})
        for row in frame.get("threads", ()):
            rows[row["tid"]] = row
        for full_name, snapshot in frame.get("metrics", {}).items():
            if snapshot["kind"] != "histogram" or not snapshot["bins"]:
                continue
            bins = snapshot["bins"]
            merged = self._merged_bins.get((core, full_name))
            if merged is None:
                if parse_full_name(full_name)[0] != _LATENCY_METRIC:
                    continue
                merged = self._merged_bins[(core, full_name)] = {}
            digest = self._latency.get(full_name)
            if digest is None:
                digest = self._latency[full_name] = Histogram(
                    bins[0][1] - bins[0][0], full_name)
            width = digest.bin_width
            for start, end, n in bins:
                index = round(start / width)
                if index * width != start or (index + 1) * width != end:
                    raise ReproError(
                        f"histogram {full_name!r}: core {core}'s bin "
                        f"[{start:g}, {end:g}) is not on the {width:g}-wide "
                        f"grid the other cores use")
                gained = n - merged.get(index, 0)
                merged[index] = n
                digest.counts[index] = digest.counts.get(index, 0) + gained
                digest.count += gained

    def _sample(self, time: float) -> _Sample:
        return _Sample(
            time,
            {core: dict(rows) for core, rows in self._threads.items()},
            {name: digest.copy() for name, digest in self._latency.items()})

    def _judge(self, sample: _Sample, breaches: List[Dict[str, Any]]) -> int:
        return (self._fairness(sample, breaches)
                + self._latency_ceiling(sample, breaches)
                + self._starvation(sample, breaches))

    def _back(self, window: int) -> Optional[_Sample]:
        """The committed sample ``window`` slices before the one being
        judged (None while the run is younger than that)."""
        return self._window[-window] if len(self._window) >= window else None

    # -- watchdogs ------------------------------------------------------------

    def _fairness(self, now: _Sample, breaches: List[Dict[str, Any]]) -> int:
        then = self._back(self.policy.fairness_window)
        if then is None:
            return 0
        checks = 0
        for core in sorted(now.threads):
            before_rows = then.threads.get(core, {})
            competing = []
            for tid, entry in now.threads[core].items():
                before = before_rows.get(tid)
                if before is None or not entry["alive"]:
                    continue
                if entry["tickets"] <= 0:
                    continue
                delta_cpu = entry["cpu_ms"] - before["cpu_ms"]
                if delta_cpu <= 0 and not (entry["runnable"]
                                           and before["runnable"]):
                    continue  # blocked/idle through the window
                competing.append({
                    "name": entry["name"],
                    "tickets": entry["tickets"], "delta_cpu": delta_cpu,
                    "delta_dispatches": (entry["dispatches"]
                                         - before["dispatches"]),
                })
            total_cpu = sum(t["delta_cpu"] for t in competing)
            total_tickets = sum(t["tickets"] for t in competing)
            total_dispatches = sum(t["delta_dispatches"] for t in competing)
            if len(competing) < 2 or total_tickets <= 0 or total_cpu <= 0:
                continue
            for thread in competing:
                entitlement = thread["tickets"] / total_tickets
                expected = entitlement * total_dispatches
                if expected < self.policy.fairness_min_expected_dispatches:
                    continue  # verdict would grade lottery noise
                checks += 1
                usage = thread["delta_cpu"] / total_cpu
                rel_error = max(0.0, usage - entitlement) / entitlement
                if rel_error > self.policy.fairness_rel_error_max:
                    breaches.append({
                        "rule": "fairness.drift", "time": now.time,
                        "subject": thread["name"],
                        "value": rel_error,
                        "bound": self.policy.fairness_rel_error_max,
                        "core": core,
                        "competing": len(competing),
                    })
        return checks

    def _latency_ceiling(self, now: _Sample,
                         breaches: List[Dict[str, Any]]) -> int:
        then = self._back(self.policy.latency_window)
        if then is None:
            return 0
        checks = 0
        for full_name in sorted(now.latency):
            delta = now.latency[full_name].since(then.latency.get(full_name))
            if delta.count < self.policy.min_samples:
                continue
            checks += 1
            p99 = delta.percentile(99)
            if p99 > self.policy.p99_ceiling_ms:
                breaches.append({
                    "rule": "latency.p99", "time": now.time,
                    "subject": parse_full_name(full_name)[1].get("share", ""),
                    "value": p99,
                    "bound": self.policy.p99_ceiling_ms,
                    "samples": delta.count,
                })
        return checks

    def _starvation(self, now: _Sample,
                    breaches: List[Dict[str, Any]]) -> int:
        window = self.policy.starvation_window
        then = self._back(window)
        if then is None:
            return 0
        checks = 0
        for core in sorted(now.threads):
            before_rows = then.threads.get(core, {})
            for tid, entry in now.threads[core].items():
                before = before_rows.get(tid)
                if before is None or not entry["alive"]:
                    continue
                checks += 1
                starving = (entry["runnable"] and before["runnable"]
                            and entry["dispatches"] == before["dispatches"]
                            and entry["tickets"] > 0)
                if starving:
                    breaches.append({
                        "rule": "starvation", "time": now.time,
                        "subject": entry["name"],
                        "value": float(entry["dispatches"]),
                        "bound": float(window),
                        "core": core,
                    })
        return checks


def evaluate_slo(slices: List[Dict[str, Any]],
                 policy: Optional[SloPolicy] = None) -> Dict[str, Any]:
    """One-shot evaluation (the module-level convenience entry)."""
    return SloEvaluator(policy).evaluate(slices)
