"""Deterministic SLO watchdogs over the aggregated observability stream.

The evaluator walks the :class:`~repro.telemetry.aggregate.ObsAggregator`
slices (one per epoch barrier, canonical order) with sliding windows
and emits machine-checkable verdicts.  Everything is a pure function
of the slices, so two runs of the same plan/seed -- on any backend --
produce byte-identical breach lists.

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

from dataclasses import asdict, dataclass
from typing import Any, Dict, List, Optional

from repro.errors import ReproError
from repro.telemetry.aggregate import merge_frames
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


class SloEvaluator:
    """Walks aggregator slices and collects deterministic breaches."""

    def __init__(self, policy: Optional[SloPolicy] = None) -> None:
        self.policy = policy if policy is not None else SloPolicy()

    def evaluate(self, slices: List[Dict[str, Any]]) -> Dict[str, Any]:
        breaches: List[Dict[str, Any]] = []
        checks = 0
        for index, record in enumerate(slices):
            checks += self._fairness(index, record, slices, breaches)
            checks += self._latency(index, record, slices, breaches)
            checks += self._starvation(index, record, slices, breaches)
        breaches.sort(key=lambda b: (b["time"], b["rule"], b["subject"]))
        counts: Dict[str, int] = {}
        for breach in breaches:
            counts[breach["rule"]] = counts.get(breach["rule"], 0) + 1
        return {
            "policy": asdict(self.policy),
            "slices": len(slices),
            "checks": checks,
            "breaches": breaches,
            "counts": counts,
            "ok": not breaches,
        }

    # -- watchdogs ------------------------------------------------------------

    def _fairness(self, index: int, record: Dict[str, Any],
                  slices: List[Dict[str, Any]],
                  breaches: List[Dict[str, Any]]) -> int:
        window = self.policy.fairness_window
        if index < window:
            return 0
        then_threads = {
            (frame["core"], entry["tid"]): entry
            for frame in slices[index - window]["frames"]
            for entry in frame.get("threads", [])}
        per_core: Dict[int, List[Dict[str, Any]]] = {}
        for frame in record["frames"]:
            for entry in frame.get("threads", []):
                before = then_threads.get((frame["core"], entry["tid"]))
                if before is None or not entry["alive"]:
                    continue
                if entry["tickets"] <= 0:
                    continue
                delta_cpu = entry["cpu_ms"] - before["cpu_ms"]
                if delta_cpu <= 0 and not (entry["runnable"]
                                           and before["runnable"]):
                    continue  # blocked/idle through the window
                per_core.setdefault(frame["core"], []).append({
                    "name": entry["name"], "core": frame["core"],
                    "tickets": entry["tickets"], "delta_cpu": delta_cpu,
                    "delta_dispatches": (entry["dispatches"]
                                         - before["dispatches"]),
                })
        checks = 0
        for core in sorted(per_core):
            competing = per_core[core]
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
                        "rule": "fairness.drift", "time": record["time"],
                        "subject": thread["name"],
                        "value": rel_error,
                        "bound": self.policy.fairness_rel_error_max,
                        "core": core,
                        "competing": len(competing),
                    })
        return checks

    def _latency(self, index: int, record: Dict[str, Any],
                 slices: List[Dict[str, Any]],
                 breaches: List[Dict[str, Any]]) -> int:
        window = self.policy.latency_window
        if index < window:
            return 0
        now = merge_frames(record["frames"])
        then = merge_frames(slices[index - window]["frames"])
        checks = 0
        for instrument in now.instruments():
            name, labels = parse_full_name(instrument.full_name)
            if name != _LATENCY_METRIC or instrument.kind != "histogram":
                continue
            delta = instrument.since(then.get(instrument.full_name))
            if delta.count < self.policy.min_samples:
                continue
            checks += 1
            p99 = delta.percentile(99)
            if p99 > self.policy.p99_ceiling_ms:
                breaches.append({
                    "rule": "latency.p99", "time": record["time"],
                    "subject": labels.get("share", ""), "value": p99,
                    "bound": self.policy.p99_ceiling_ms,
                    "samples": delta.count,
                })
        return checks

    def _starvation(self, index: int, record: Dict[str, Any],
                    slices: List[Dict[str, Any]],
                    breaches: List[Dict[str, Any]]) -> int:
        window = self.policy.starvation_window
        if index < window:
            return 0
        then_threads = {
            (frame["core"], entry["tid"]): entry
            for frame in slices[index - window]["frames"]
            for entry in frame.get("threads", [])}
        checks = 0
        for frame in record["frames"]:
            for entry in frame.get("threads", []):
                before = then_threads.get((frame["core"], entry["tid"]))
                if before is None or not entry["alive"]:
                    continue
                checks += 1
                starving = (entry["runnable"] and before["runnable"]
                            and entry["dispatches"] == before["dispatches"]
                            and entry["tickets"] > 0)
                if starving:
                    breaches.append({
                        "rule": "starvation", "time": record["time"],
                        "subject": entry["name"],
                        "value": float(entry["dispatches"]),
                        "bound": float(window),
                        "core": frame["core"],
                    })
        return checks


def evaluate_slo(slices: List[Dict[str, Any]],
                 policy: Optional[SloPolicy] = None) -> Dict[str, Any]:
    """One-shot evaluation (the module-level convenience entry)."""
    return SloEvaluator(policy).evaluate(slices)
