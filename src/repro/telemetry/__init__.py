"""Deterministic observability: span tracing and metrics.

The subsystem extends the repo's determinism contract to telemetry:
every span and metric is a pure function of virtual-time events, so
two runs of the same seed export byte-identical traces.  Attachment is
strictly optional -- a simulation that never imports this package (or
imports it but leaves the hub detached) behaves bit-identically.

On top of the per-process hubs sits the **cross-shard observability
plane** for the sharded engine: barrier-mediated metric aggregation
(:mod:`~repro.telemetry.aggregate`), stitched cross-core Chrome traces
(:mod:`~repro.telemetry.stitch`), deterministic SLO watchdogs
(:mod:`~repro.telemetry.slo`), the crash flight recorder
(:mod:`~repro.telemetry.flight`), and the run report
(:mod:`~repro.telemetry.obsreport`).

See ``docs/OBSERVABILITY.md`` for the span model, exporter formats,
and the Perfetto loading recipe; ``python -m repro.telemetry`` for the
one-shot trace-a-recipe CLI; and ``python -m repro.telemetry report``
for the sharded run report.
"""

from repro.telemetry.aggregate import (
    GlobalMetricsView,
    MergedScalar,
    ObsAggregator,
    fairness_summary,
    merge_frames,
)
from repro.telemetry.exporters import (
    export_chrome,
    export_jsonl,
    export_prometheus,
    parse_chrome,
    parse_jsonl,
    sha256_text,
    validate_chrome_trace,
    write_checksummed,
)
from repro.telemetry.flight import (
    build_bundle,
    load_bundle,
    summarize_bundle,
    write_bundle,
)
from repro.telemetry.obsreport import build_report, render_markdown
from repro.telemetry.probe import KernelProbe, Telemetry
from repro.telemetry.registry import (
    Counter,
    Gauge,
    HistogramInstrument,
    MetricRegistry,
    parse_full_name,
)
from repro.telemetry.slo import SloEvaluator, SloPolicy, evaluate_slo
from repro.telemetry.spans import Span, SpanTracer
from repro.telemetry.stitch import stitch_trace, stitched_chrome

__all__ = [
    "Counter",
    "Gauge",
    "GlobalMetricsView",
    "HistogramInstrument",
    "KernelProbe",
    "MergedScalar",
    "MetricRegistry",
    "ObsAggregator",
    "SloEvaluator",
    "SloPolicy",
    "Span",
    "SpanTracer",
    "Telemetry",
    "build_bundle",
    "build_report",
    "evaluate_slo",
    "export_chrome",
    "export_jsonl",
    "export_prometheus",
    "fairness_summary",
    "load_bundle",
    "merge_frames",
    "parse_chrome",
    "parse_full_name",
    "parse_jsonl",
    "render_markdown",
    "sha256_text",
    "stitch_trace",
    "stitched_chrome",
    "summarize_bundle",
    "validate_chrome_trace",
    "write_bundle",
    "write_checksummed",
]
