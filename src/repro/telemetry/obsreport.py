"""Run reports over the cross-shard observability plane.

:func:`build_report` turns an aggregated run (global metrics view,
fairness summary, SLO verdicts, stitched-trace digest, recovery
timeline) into one JSON document, and :func:`render_markdown` renders
it for humans.  The document is split the same way the stitched trace
is:

* ``canonical`` -- everything that is a pure function of the simulated
  universe (metrics, fairness, SLO verdicts, the canonical trace
  digest).  ``canonical_sha256`` is computed over this section alone,
  so it is byte-identical across ``single``/``inline``/``mp`` backends
  of the same plan and seed, workers lost or not -- the cross-backend
  acceptance digest.
* ``recovery`` -- the mp backend's host-fate annex (restarts, retries,
  degradation), which legitimately differs between an undisturbed and
  a fault-injected run of the same universe.
"""

from __future__ import annotations

import hashlib
import json
from typing import Any, Dict, List, Optional

__all__ = ["REPORT_FORMAT", "REPORT_VERSION", "build_report",
           "render_markdown"]

REPORT_FORMAT = "repro-obs-report"
REPORT_VERSION = 1


def _dumps(obj: Any) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _round6(value: float) -> float:
    """Stabilize derived ratios for display (the merge itself is exact)."""
    return round(float(value), 6)


def build_report(*, plan_checksum: str, time: float,
                 metrics: Dict[str, Any],
                 fairness: Dict[str, Any],
                 slo: Dict[str, Any],
                 trace_sha256: str,
                 slices: int,
                 barriers: int,
                 recovery: Optional[Dict[str, Any]] = None,
                 context: Optional[Dict[str, Any]] = None) -> Dict[str, Any]:
    """Assemble the report document (adds ``canonical_sha256``)."""
    canonical = {
        "format": REPORT_FORMAT,
        "version": REPORT_VERSION,
        "plan": plan_checksum,
        "time": float(time),
        "slices": int(slices),
        "barriers": int(barriers),
        "metrics": metrics,
        "fairness": fairness,
        "slo": slo,
        "trace_sha256": trace_sha256,
    }
    document = {
        "canonical": canonical,
        "canonical_sha256": hashlib.sha256(
            _dumps(canonical).encode("utf-8")).hexdigest(),
        "recovery": recovery or {"degraded": False,
                                 "degrade_reason": None, "restarts": [],
                                 "retries": [], "faults_armed": 0,
                                 "events": []},
        "context": context or {},
    }
    return document


def _metric_rows(metrics: Dict[str, Any]) -> List[str]:
    rows = ["| metric | kind | value |", "| --- | --- | --- |"]
    for full_name in sorted(metrics):
        snapshot = metrics[full_name]
        if snapshot["kind"] == "histogram":
            value = (f"count={snapshot['count']} "
                     f"mean={_round6(snapshot['mean'])}")
        else:
            value = f"{_round6(snapshot['value'])}"
        rows.append(f"| `{full_name}` | {snapshot['kind']} | {value} |")
    return rows


def render_markdown(document: Dict[str, Any]) -> str:
    """Human-facing Markdown for a report document."""
    canonical = document["canonical"]
    fairness = canonical["fairness"]
    slo = canonical["slo"]
    recovery = document.get("recovery", {})
    lines = [
        "# Sharded run report",
        "",
        f"- plan: `{canonical['plan']}`",
        f"- virtual time: {canonical['time']:g} ms over "
        f"{canonical['barriers']} barriers ({canonical['slices']} slices)",
        f"- canonical sha256: `{document['canonical_sha256']}`",
        f"- stitched trace sha256: `{canonical['trace_sha256']}`",
        "",
        "## Fairness",
        "",
        f"- alive threads: {fairness['alive']} "
        f"(funded: {fairness['funded']})",
        f"- tickets alive: {_round6(fairness['tickets_total'])}",
        f"- cpu consumed: {_round6(fairness['cpu_ms_total'])} ms",
        f"- max abs error: {_round6(fairness['max_abs_error'])}",
        f"- max rel error: {_round6(fairness['max_rel_error'])}",
        "",
        "| thread | core | tickets | entitlement | usage | rel error |",
        "| --- | --- | --- | --- | --- | --- |",
    ]
    for entry in fairness["threads"]:
        lines.append(
            f"| {entry['name']} | {entry['core']} "
            f"| {_round6(entry['tickets'])} "
            f"| {_round6(entry['entitlement'])} "
            f"| {_round6(entry['usage'])} "
            f"| {_round6(entry['rel_error'])} |")
    verdict = "PASS" if slo["ok"] else f"FAIL ({len(slo['breaches'])})"
    lines += [
        "",
        "## SLO verdicts",
        "",
        f"- verdict: **{verdict}** over {slo['checks']} checks",
    ]
    if slo["breaches"]:
        lines += ["", "| rule | time | subject | value | bound |",
                  "| --- | --- | --- | --- | --- |"]
        for breach in slo["breaches"]:
            lines.append(
                f"| {breach['rule']} | {breach['time']:g} "
                f"| {breach['subject']} | {_round6(breach['value'])} "
                f"| {_round6(breach['bound'])} |")
    lines += ["", "## Global metrics", ""]
    lines += _metric_rows(canonical["metrics"])
    lines += ["", "## Recovery timeline", ""]
    events = recovery.get("events", [])
    if not events:
        lines.append("No recovery events (undisturbed run).")
    else:
        lines += [
            f"- degraded: {recovery.get('degraded', False)}",
            f"- restarts: {recovery.get('restarts', [])}",
            f"- retries: {recovery.get('retries', [])}",
            "",
            "| time | epoch | event | shard |",
            "| --- | --- | --- | --- |",
        ]
        for event in events:
            shard = event.get("shard")
            lines.append(
                f"| {event.get('time', 0):g} | {event.get('epoch')} "
                f"| {event['kind']} "
                f"| {'-' if shard is None else shard} |")
    return "\n".join(lines) + "\n"
