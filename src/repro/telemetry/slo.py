"""Deterministic SLO watchdogs over the aggregated observability stream.

The evaluator reads no frame itself: the
:class:`~repro.telemetry.aggregate.ObsAggregator` that owns it folds
each slice's frames once, into running per-core frames and one merged
latency digest per band, and the evaluator samples those at every
barrier, judges each slice against sliding windows, and emits
machine-checkable verdicts.  :func:`evaluate_slo` folds a list of
slices through an aggregator the same way.  It keeps a sample of the
last ``max(window)`` slices and nothing older.  Everything is a pure
function of the frames, so two runs of the same plan/seed -- on any
backend -- produce byte-identical breach lists.  The thresholds and
windows are the module constants below; the report records them as
its ``policy``.

Three watchdogs:

* **fairness drift** -- over each ``FAIRNESS_WINDOW``-slice window,
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
  ``FAIRNESS_MIN_EXPECTED_DISPATCHES``: lottery scheduling is
  probabilistically fair, with relative error shrinking as
  ``1/sqrt(expected)``, so verdicts below that floor would grade
  noise, not the scheduler.
* **latency ceiling** -- the p99 of the wake-to-dispatch latency per
  ticket-share band, computed from the *window delta* of the merged
  cumulative digest (``Histogram.since``), must stay under
  ``P99_CEILING_MS``.
  Windows with fewer than ``MIN_SAMPLES`` observations are skipped
  (a p99 over three points is noise, not a verdict).
* **starvation** -- a thread that is runnable at both edges of a
  ``STARVATION_WINDOW``-slice window without a single new dispatch is
  starving; the paper's proportional-share claim says every funded
  thread makes progress.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Any, Deque, Dict, List, Optional

from repro.metrics.histogram import Histogram
from repro.telemetry.registry import parse_full_name

__all__ = ["SloEvaluator", "evaluate_slo"]

#: Thresholds and windows of the watchdogs (windows in slices).
FAIRNESS_REL_ERROR_MAX = 0.9
FAIRNESS_WINDOW = 4
FAIRNESS_MIN_EXPECTED_DISPATCHES = 10.0
P99_CEILING_MS = 2000.0
LATENCY_WINDOW = 4
MIN_SAMPLES = 20
STARVATION_WINDOW = 6


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

    It reads, and never writes, what the
    :class:`~repro.telemetry.aggregate.ObsAggregator` that owns it
    folds: the running per-core frames (whose thread rows are the
    latest of every thread) and one ``repro_wake_to_dispatch_ms``
    digest per band, merged across cores.  :meth:`observe` is called
    once those hold a slice.  A slice is committed lazily:
    :meth:`report` judges the running view as the slice of the current
    instant, and only when the next instant arrives is the sample taken
    at this one's barrier judged for good, against the committed
    samples, of which the last ``max(window)`` are kept.  So observing
    an instant again replaces its slice, and a stop point -- no barrier
    -- shows in the report while the run stands there and leaves no
    slice behind: what is committed is what an uninterrupted run
    observes.
    """

    def __init__(self, frames: Dict[int, Dict[str, Any]],
                 latency: Dict[str, Histogram]) -> None:
        self._frames = frames
        self._latency = latency
        self._window: Deque[_Sample] = deque(maxlen=max(
            FAIRNESS_WINDOW, LATENCY_WINDOW, STARVATION_WINDOW))
        #: The current instant, and the sample taken at its barrier.
        self._now: Optional[float] = None
        self._pending: Optional[_Sample] = None
        self._committed = 0
        self._checks = 0
        self._breaches: List[Dict[str, Any]] = []

    def observe(self, time: float, barrier: bool = True) -> None:
        """The running view now holds the slice at ``time``; a new
        instant first commits the previous one's barrier sample.
        ``barrier=False`` (a stop point) takes no sample."""
        if time != self._now and self._pending is not None:
            self._checks += self._judge(self._pending, self._breaches)
            self._window.append(self._pending)
            self._committed += 1
            self._pending = None
        self._now = time
        if barrier:
            self._pending = self._sample(time)

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
            "policy": {
                "fairness_rel_error_max": FAIRNESS_REL_ERROR_MAX,
                "fairness_window": FAIRNESS_WINDOW,
                "fairness_min_expected_dispatches":
                    FAIRNESS_MIN_EXPECTED_DISPATCHES,
                "p99_ceiling_ms": P99_CEILING_MS,
                "latency_window": LATENCY_WINDOW,
                "min_samples": MIN_SAMPLES,
                "starvation_window": STARVATION_WINDOW,
            },
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

    def _sample(self, time: float) -> _Sample:
        return _Sample(
            time,
            {core: dict(frame["threads"])
             for core, frame in self._frames.items()},
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
        then = self._back(FAIRNESS_WINDOW)
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
                if expected < FAIRNESS_MIN_EXPECTED_DISPATCHES:
                    continue  # verdict would grade lottery noise
                checks += 1
                usage = thread["delta_cpu"] / total_cpu
                rel_error = max(0.0, usage - entitlement) / entitlement
                if rel_error > FAIRNESS_REL_ERROR_MAX:
                    breaches.append({
                        "rule": "fairness.drift", "time": now.time,
                        "subject": thread["name"],
                        "value": rel_error,
                        "bound": FAIRNESS_REL_ERROR_MAX,
                        "core": core,
                        "competing": len(competing),
                    })
        return checks

    def _latency_ceiling(self, now: _Sample,
                         breaches: List[Dict[str, Any]]) -> int:
        then = self._back(LATENCY_WINDOW)
        if then is None:
            return 0
        checks = 0
        for full_name in sorted(now.latency):
            delta = now.latency[full_name].since(then.latency.get(full_name))
            if delta.count < MIN_SAMPLES:
                continue
            checks += 1
            p99 = delta.percentile(99)
            if p99 > P99_CEILING_MS:
                breaches.append({
                    "rule": "latency.p99", "time": now.time,
                    "subject": parse_full_name(full_name)[1].get("share", ""),
                    "value": p99,
                    "bound": P99_CEILING_MS,
                    "samples": delta.count,
                })
        return checks

    def _starvation(self, now: _Sample,
                    breaches: List[Dict[str, Any]]) -> int:
        window = STARVATION_WINDOW
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


def evaluate_slo(slices: List[Dict[str, Any]]) -> Dict[str, Any]:
    """The SLO report of ``slices`` (``{"time", "frames"}`` records in
    canonical order), folded through an
    :class:`~repro.telemetry.aggregate.ObsAggregator` as a run's are."""
    from repro.telemetry.aggregate import ObsAggregator

    aggregator = ObsAggregator()
    for record in slices:
        aggregator.observe(record["time"], record["frames"])
    return aggregator.slo.report()
