"""Cross-shard trace stitching: one canonical Chrome trace per run.

Each :class:`~repro.shard.core.ShardCore` traces into a private
:class:`~repro.telemetry.spans.SpanTracer` whose span ids are local to
the core.  This module merges those per-core dumps into one Chrome
trace-event payload:

* **Clock alignment is free.**  Every core's timestamps are virtual
  milliseconds of the same simulated universe, and the barrier
  protocol guarantees no cross-core effect is visible before its
  barrier instant -- so per-core spans can be interleaved directly on
  the canonical ``(start time, core, local sid)`` order with no skew
  correction.  Barrier instants are drawn on a dedicated track as the
  alignment witnesses.
* **Span ids are remapped.**  Local sids are reassigned from a single
  global counter in the canonical order above; parent links are
  remapped per core, so nesting survives the merge.
* **Flow events stitch the seams.**  The shard layer records
  ``shard.tx.<kind>`` / ``shard.rx.<kind>`` instants when a barrier
  payload is emitted and applied; matching ``(src, seq)`` pairs become
  Chrome flow events (``ph:"s"`` at the emission, ``ph:"f"`` at the
  application), so IPC call/send/reply edges and migrate/evacuate
  spawns render as arrows across cores.
* **Recovery is a separate annex.**  Supervisor events
  (``fault.detected``, ``worker.restart``, ``epoch.retry``,
  ``backend.degrade``) are instants on a dedicated recovery process.
  They describe *host* fate, which legitimately differs between
  faulted and undisturbed runs of the same universe, so the metadata
  carries two digests: ``sha256`` over the canonical events only
  (identical across backends) and ``recovery_sha256`` over the annex.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Optional, Tuple

from repro.telemetry.exporters import sha256_text

__all__ = ["STITCH_FORMAT", "STITCH_VERSION", "stitch_trace",
           "stitched_chrome"]

STITCH_FORMAT = "repro-telemetry-stitched"
STITCH_VERSION = 1

#: pid layout: 0 = run-global tracks, 1..N = cores, N+1 = recovery.
_GLOBAL_PID = 0


def _dumps(obj: Any) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _flow_id(src: int, seq: int) -> int:
    """Stable flow-event id for a payload's ``(src, seq)`` identity."""
    return src * 1_000_000 + seq


class _TidAllocator:
    """Globally unique Chrome tids (one per (pid, track))."""

    def __init__(self) -> None:
        self._next = 0
        self._tids: Dict[Tuple[int, str], int] = {}
        self.meta: List[Dict[str, Any]] = []

    def tid(self, pid: int, track: str) -> int:
        key = (pid, track)
        if key not in self._tids:
            self._tids[key] = self._next
            self.meta.append({
                "ph": "M", "pid": pid, "tid": self._next, "ts": 0,
                "name": "thread_name", "args": {"name": track},
            })
            self._next += 1
        return self._tids[key]


def stitch_trace(dumps: List[Dict[str, Any]], *,
                 barriers: Optional[List[Dict[str, Any]]] = None,
                 alerts: Optional[List[Dict[str, Any]]] = None,
                 recovery: Optional[List[Dict[str, Any]]] = None,
                 end_time: Optional[float] = None) -> Dict[str, Any]:
    """Merge per-core span dumps into one Chrome trace payload.

    ``dumps`` holds one ``{"core", "spans", "open_spans"}`` record per
    core (the backend's ``obs_dumps()``); ``barriers`` the aggregator's
    barrier instants; ``alerts`` the SLO evaluator's breach events
    (canonical); ``recovery`` the supervisor's event log (annex).
    Open spans are clamped to ``end_time`` and flagged
    ``stitch_open`` -- the dump is a pure read, the core's tracer is
    never finalized by stitching.
    """
    dumps = sorted(dumps, key=lambda dump: dump["core"])
    tids = _TidAllocator()
    events: List[Dict[str, Any]] = []
    process_meta: List[Dict[str, Any]] = [{
        "ph": "M", "pid": _GLOBAL_PID, "tid": 0, "ts": 0,
        "name": "process_name", "args": {"name": "repro.shard"},
    }]

    # -- collect (core, span) pairs in the canonical merge order -----------
    entries: List[Tuple[float, int, int, Dict[str, Any], bool]] = []
    for dump in dumps:
        core = dump["core"]
        process_meta.append({
            "ph": "M", "pid": core + 1, "tid": 0, "ts": 0,
            "name": "process_name", "args": {"name": f"core{core}"},
        })
        for span in dump.get("spans", []):
            entries.append((span["start"], core, span["sid"], span, False))
        for span in dump.get("open_spans", []):
            entries.append((span["start"], core, span["sid"], span, True))
    entries.sort(key=lambda entry: (entry[0], entry[1], entry[2]))

    sid_map: Dict[Tuple[int, int], int] = {}
    for gid, (_, core, sid, _, _) in enumerate(entries):
        sid_map[(core, sid)] = gid

    tx_events: Dict[Tuple[int, int], Dict[str, Any]] = {}
    rx_events: Dict[Tuple[int, int], Dict[str, Any]] = {}
    span_events: List[Dict[str, Any]] = []
    for start, core, sid, span, is_open in entries:
        pid = core + 1
        tid = tids.tid(pid, span["track"])
        gid = sid_map[(core, sid)]
        parent = sid_map.get((core, span["parent"]))
        attrs = dict(span.get("attrs", {}))
        if is_open:
            attrs["stitch_open"] = True
        args = {"sid": gid, "parent": parent, "core": core, **attrs}
        end = span["end"]
        if end is None:
            end = end_time if end_time is not None else start
        name = span["name"]
        if end == start:
            event = {"ph": "i", "s": "t", "pid": pid, "tid": tid,
                     "ts": start * 1000.0, "name": name,
                     "cat": span["category"], "args": args}
            if name.startswith("shard.tx."):
                tx_events[(attrs["src"], attrs["seq"])] = event
            elif name.startswith("shard.rx."):
                rx_events[(attrs["src"], attrs["seq"])] = event
        else:
            event = {"ph": "X", "pid": pid, "tid": tid,
                     "ts": start * 1000.0,
                     "dur": (end - start) * 1000.0,
                     "name": name, "cat": span["category"], "args": args}
        span_events.append(event)
    events.extend(span_events)

    # -- flow events: payload emission -> barrier application --------------
    for key in sorted(set(tx_events) & set(rx_events)):
        tx, rx = tx_events[key], rx_events[key]
        kind = tx["name"][len("shard.tx."):]
        flow = _flow_id(*key)
        events.append({
            "ph": "s", "id": flow, "pid": tx["pid"], "tid": tx["tid"],
            "ts": tx["ts"], "name": f"shard.flow.{kind}", "cat": "shard",
            "args": {"src": key[0], "seq": key[1]},
        })
        events.append({
            "ph": "f", "bp": "e", "id": flow, "pid": rx["pid"],
            "tid": rx["tid"], "ts": rx["ts"],
            "name": f"shard.flow.{kind}", "cat": "shard",
            "args": {"src": key[0], "seq": key[1]},
        })

    # -- run-global tracks --------------------------------------------------
    for instant in barriers or []:
        events.append({
            "ph": "i", "s": "t", "pid": _GLOBAL_PID,
            "tid": tids.tid(_GLOBAL_PID, "barrier"),
            "ts": instant["time"] * 1000.0, "name": "shard.barrier",
            "cat": "shard", "args": {"payloads": instant["payloads"]},
        })
    for alert in alerts or []:
        events.append({
            "ph": "i", "s": "t", "pid": _GLOBAL_PID,
            "tid": tids.tid(_GLOBAL_PID, "slo"),
            "ts": alert["time"] * 1000.0,
            "name": f"slo.{alert['rule']}", "cat": "slo",
            "args": {key: value for key, value in alert.items()
                     if key not in ("time", "rule")},
        })

    canonical = process_meta + tids.meta + events

    # -- recovery annex ------------------------------------------------------
    annex: List[Dict[str, Any]] = []
    recovery = list(recovery or [])
    if recovery:
        recovery_pid = len(dumps) + 1
        annex.append({
            "ph": "M", "pid": recovery_pid, "tid": 0, "ts": 0,
            "name": "process_name", "args": {"name": "supervisor"},
        })
        annex.append({
            "ph": "M", "pid": recovery_pid, "tid": 0, "ts": 0,
            "name": "thread_name", "args": {"name": "recovery"},
        })
        for event in recovery:
            annex.append({
                "ph": "i", "s": "t", "pid": recovery_pid, "tid": 0,
                "ts": float(event.get("time", 0.0)) * 1000.0,
                "name": f"shard.{event['kind']}", "cat": "recovery",
                "args": {key: value for key, value in event.items()
                         if key not in ("kind", "time")},
            })

    return {
        "displayTimeUnit": "ms",
        "metadata": {
            "format": STITCH_FORMAT,
            "version": STITCH_VERSION,
            "cores": len(dumps),
            "sha256": sha256_text(_dumps(canonical)),
            "recovery_sha256": sha256_text(_dumps(annex)),
        },
        "traceEvents": canonical + annex,
    }


def stitched_chrome(dumps: List[Dict[str, Any]], **kwargs: Any) -> str:
    """:func:`stitch_trace` serialized as canonical one-line JSON."""
    return _dumps(stitch_trace(dumps, **kwargs)) + "\n"
