"""Trace and metric exporters: JSONL, Chrome trace-event JSON, Prometheus.

Every exporter is deterministic byte-for-byte: keys are sorted, floats
use Python's shortest-repr serialization, no wall-clock or hostname
leaks into the output, and each format embeds a sha256 checksum over
its own payload so a consumer can verify integrity -- and two runs of
the same seed can be compared by digest alone.

Formats
-------
* **JSONL** (:func:`export_jsonl`): one JSON object per line -- a
  header, each span, each metric, then a checksum footer over the
  preceding lines.  :func:`parse_jsonl` round-trips it.
* **Chrome trace-event JSON** (:func:`export_chrome`): the
  ``traceEvents`` array format loadable in Perfetto / ``chrome://
  tracing``.  Spans become ``ph:"X"`` complete events (timestamps in
  microseconds), instants become ``ph:"i"``; span ids and parents ride
  in ``args`` so :func:`parse_chrome` can rebuild the span tree.
* **Prometheus text** (:func:`export_prometheus`): the plain text
  exposition format (HELP/TYPE comments, ``_bucket``/``_sum``/
  ``_count`` series for histograms) with a trailing checksum comment.

:func:`write_checksummed` writes any export next to a ``.sha256``
sidecar file.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
from typing import Any, Dict, List, Optional, Tuple

from repro.checkpoint.statetree import canonical_json, tree_checksum
from repro.errors import ReproError
from repro.telemetry.registry import MetricRegistry, parse_full_name
from repro.telemetry.spans import Span, SpanTracer

__all__ = [
    "sha256_text",
    "export_jsonl",
    "parse_jsonl",
    "export_chrome",
    "parse_chrome",
    "validate_chrome_trace",
    "export_prometheus",
    "write_checksummed",
]

JSONL_FORMAT = "repro-telemetry-jsonl"
JSONL_VERSION = 1


def sha256_text(text: str) -> str:
    """Hex sha256 of UTF-8 encoded text."""
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


# -- JSONL --------------------------------------------------------------------

def export_jsonl(tracer: SpanTracer,
                 registry: Optional[MetricRegistry] = None) -> str:
    """Serialize spans (and optionally metrics) as checksummed JSONL."""
    lines = [canonical_json({
        "kind": "header",
        "format": JSONL_FORMAT,
        "version": JSONL_VERSION,
        "spans": len(tracer),
        "dropped_spans": tracer.dropped_spans,
    })]
    for span in tracer:
        lines.append(canonical_json({"kind": "span", **span.to_dict()}))
    if registry is not None:
        for name, snapshot in registry.as_dict().items():
            lines.append(canonical_json({"kind": "metric", "name": name,
                                         "data": snapshot}))
    body = "\n".join(lines)
    lines.append(canonical_json({"kind": "checksum",
                                 "sha256": sha256_text(body)}))
    return "\n".join(lines) + "\n"


def parse_jsonl(text: str) -> Tuple[List[Span], Dict[str, Dict[str, Any]]]:
    """Parse and verify a JSONL export; returns (spans, metrics)."""
    lines = text.splitlines()
    if not lines:
        raise ReproError("empty JSONL trace")
    header = json.loads(lines[0])
    if header.get("format") != JSONL_FORMAT:
        raise ReproError(
            f"not a {JSONL_FORMAT} stream: header {header.get('format')!r}"
        )
    footer = json.loads(lines[-1])
    if footer.get("kind") != "checksum":
        raise ReproError("JSONL trace is missing its checksum footer")
    expected = sha256_text("\n".join(lines[:-1]))
    if footer.get("sha256") != expected:
        raise ReproError(
            f"JSONL checksum mismatch: footer {footer.get('sha256')!r}, "
            f"recomputed {expected!r}"
        )
    spans: List[Span] = []
    metrics: Dict[str, Dict[str, Any]] = {}
    for line in lines[1:-1]:
        record = json.loads(line)
        kind = record.pop("kind", None)
        if kind == "span":
            spans.append(Span.from_dict(record))
        elif kind == "metric":
            metrics[record["name"]] = record["data"]
    return spans, metrics


# -- Chrome trace-event JSON --------------------------------------------------

def _chrome_events(tracer: SpanTracer) -> List[Dict[str, Any]]:
    events: List[Dict[str, Any]] = [{
        "ph": "M", "pid": 0, "tid": 0, "ts": 0,
        "name": "process_name", "args": {"name": "repro"},
    }]
    tids: Dict[str, int] = {}
    for index, track in enumerate(tracer.tracks()):
        tids[track] = index
        events.append({
            "ph": "M", "pid": 0, "tid": index, "ts": 0,
            "name": "thread_name", "args": {"name": track},
        })
    for span in tracer:
        tid = tids.setdefault(span.track, len(tids))
        args = {"sid": span.sid, "parent": span.parent, **span.attrs}
        if span.instant:
            events.append({
                "ph": "i", "s": "t", "pid": 0, "tid": tid,
                "ts": span.start * 1000.0, "name": span.name,
                "cat": span.category, "args": args,
            })
        else:
            end = span.end if span.end is not None else span.start
            events.append({
                "ph": "X", "pid": 0, "tid": tid,
                "ts": span.start * 1000.0,
                "dur": (end - span.start) * 1000.0,
                "name": span.name, "cat": span.category, "args": args,
            })
    return events


def export_chrome(tracer: SpanTracer) -> str:
    """Serialize the trace as Chrome trace-event JSON (Perfetto-ready)."""
    events = _chrome_events(tracer)
    checksum = tree_checksum(events)
    payload = {
        "displayTimeUnit": "ms",
        "metadata": {
            "format": "repro-telemetry-chrome",
            "version": JSONL_VERSION,
            "dropped_spans": tracer.dropped_spans,
            "sha256": checksum,
        },
        "traceEvents": events,
    }
    return canonical_json(payload) + "\n"


def parse_chrome(text: str) -> List[Span]:
    """Rebuild spans from a Chrome export (verifies the checksum)."""
    payload = json.loads(text)
    events = payload.get("traceEvents")
    if not isinstance(events, list):
        raise ReproError("Chrome trace has no traceEvents array")
    metadata = payload.get("metadata", {})
    expected = metadata.get("sha256")
    if expected is not None:
        actual = tree_checksum(events)
        if actual != expected:
            raise ReproError(
                f"Chrome trace checksum mismatch: metadata {expected!r}, "
                f"recomputed {actual!r}"
            )
    tracks: Dict[int, str] = {}
    for event in events:
        if event.get("ph") == "M" and event.get("name") == "thread_name":
            tracks[event["tid"]] = event["args"]["name"]
    spans: List[Span] = []
    for event in events:
        ph = event.get("ph")
        if ph not in ("X", "i"):
            continue
        args = dict(event.get("args", {}))
        sid = args.pop("sid")
        parent = args.pop("parent", None)
        start = event["ts"] / 1000.0
        end = start + (event.get("dur", 0.0) / 1000.0 if ph == "X" else 0.0)
        spans.append(Span(
            sid=sid, parent=parent,
            track=tracks.get(event["tid"], str(event["tid"])),
            name=event["name"], category=event.get("cat", ""),
            start=start, end=end, attrs=args,
        ))
    spans.sort(key=lambda s: s.sid)
    return spans


def validate_chrome_trace(text: str) -> List[str]:
    """Schema-check a Chrome export; returns a list of problems (empty
    means loadable)."""
    problems: List[str] = []
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        return [f"not JSON: {exc}"]
    if not isinstance(payload, dict):
        return ["top level must be an object"]
    events = payload.get("traceEvents")
    if not isinstance(events, list):
        return ["traceEvents must be an array"]
    for index, event in enumerate(events):
        where = f"traceEvents[{index}]"
        if not isinstance(event, dict):
            problems.append(f"{where}: not an object")
            continue
        ph = event.get("ph")
        if ph not in ("X", "i", "M", "B", "E", "s", "t", "f"):
            problems.append(f"{where}: unknown phase {ph!r}")
            continue
        for key in ("pid", "tid"):
            if not isinstance(event.get(key), int):
                problems.append(f"{where}: missing integer {key!r}")
        if not isinstance(event.get("name"), str):
            problems.append(f"{where}: missing name")
        if ph in ("X", "i", "s", "t", "f"):
            if not isinstance(event.get("ts"), (int, float)):
                problems.append(f"{where}: missing numeric ts")
        if ph in ("s", "t", "f"):
            if not isinstance(event.get("id"), int):
                problems.append(f"{where}: flow event missing integer id")
        if ph == "X":
            dur = event.get("dur")
            if not isinstance(dur, (int, float)):
                problems.append(f"{where}: X event missing numeric dur")
            elif dur < 0:
                problems.append(f"{where}: negative dur {dur!r}")
        if ph == "i" and event.get("s") not in ("t", "p", "g"):
            problems.append(f"{where}: instant scope must be t/p/g")
    return problems


# -- Prometheus text ----------------------------------------------------------

_NAME_OK = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_OK = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")


def _sanitize_metric_name(name: str) -> str:
    """Coerce into ``[a-zA-Z_:][a-zA-Z0-9_:]*`` (the exposition-format
    grammar): every illegal character becomes ``_``.  Internal metric
    names like the supervisor's ``shard.restart`` need this -- a
    Prometheus scraper rejects the whole page on one bad name."""
    if _NAME_OK.match(name):
        return name
    cleaned = re.sub(r"[^a-zA-Z0-9_:]", "_", name)
    if not cleaned or not re.match(r"[a-zA-Z_:]", cleaned[0]):
        cleaned = "_" + cleaned
    return cleaned


def _sanitize_label_name(name: str) -> str:
    """Label grammar is narrower than metric names (no colon)."""
    if _LABEL_OK.match(name):
        return name
    cleaned = re.sub(r"[^a-zA-Z0-9_]", "_", name)
    if not cleaned or not re.match(r"[a-zA-Z_]", cleaned[0]):
        cleaned = "_" + cleaned
    return cleaned


def _escape_label_value(value: str) -> str:
    return (value.replace("\\", r"\\").replace("\n", r"\n")
            .replace('"', r'\"'))


def _escape_help(text: str) -> str:
    return text.replace("\\", r"\\").replace("\n", r"\n")


def _render_labels(labels: Dict[str, str],
                   extra: Optional[Tuple[str, str]] = None) -> str:
    pairs = [(_sanitize_label_name(key), _escape_label_value(str(value)))
             for key, value in labels.items()]
    if extra is not None:
        pairs.append(extra)
    if not pairs:
        return ""
    rendered = ",".join(f'{key}="{value}"' for key, value in pairs)
    return "{" + rendered + "}"


def _fmt(value: float) -> str:
    """Prometheus sample value: integral floats render without '.0'."""
    if float(value).is_integer():
        return str(int(value))
    return repr(float(value))


def export_prometheus(registry: Any) -> str:
    """Serialize the registry in the Prometheus text exposition format.

    Accepts a :class:`~repro.telemetry.registry.MetricRegistry` or the
    aggregated :class:`~repro.telemetry.aggregate.GlobalMetricsView`
    (anything with an ``instruments()`` iterator of instrument-shaped
    objects).  Metric and label names are sanitized to the exposition
    grammar; label values are escaped; ``# HELP``/``# TYPE`` family
    lines are emitted once per sanitized family (histograms advertise
    the family that owns the ``_bucket``/``_sum``/``_count`` series).
    """
    lines: List[str] = []
    typed: set = set()
    for instrument in registry.instruments():
        raw_name, labels = parse_full_name(instrument.full_name)
        name = _sanitize_metric_name(raw_name)
        if name not in typed:
            typed.add(name)
            if instrument.help:
                lines.append(f"# HELP {name} {_escape_help(instrument.help)}")
            lines.append(f"# TYPE {name} {instrument.kind}")
        if instrument.kind == "histogram":
            cumulative = 0
            for _, bin_end, count in instrument.bins():
                cumulative += count
                rendered = _render_labels(labels, ("le", f"{bin_end:g}"))
                lines.append(f"{name}_bucket{rendered} {cumulative}")
            rendered = _render_labels(labels, ("le", "+Inf"))
            lines.append(f"{name}_bucket{rendered} {instrument.count}")
            # Not ``instrument.total``: a merged view only has mean and
            # count, and a core's own export must print the same bytes.
            total = instrument.mean() * instrument.count
            lines.append(f"{name}_sum{_render_labels(labels)} {_fmt(total)}")
            lines.append(
                f"{name}_count{_render_labels(labels)} {instrument.count}")
        else:
            lines.append(
                f"{name}{_render_labels(labels)} {_fmt(instrument.value)}")
    body = "\n".join(lines)
    lines.append(f"# sha256 {sha256_text(body)}")
    return "\n".join(lines) + "\n"


# -- files --------------------------------------------------------------------

def write_checksummed(path: str, text: str) -> str:
    """Write an export plus a ``.sha256`` sidecar; returns the digest."""
    digest = sha256_text(text)
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text)
    with open(path + ".sha256", "w", encoding="utf-8") as handle:
        handle.write(f"{digest}  {os.path.basename(path)}\n")
    return digest
