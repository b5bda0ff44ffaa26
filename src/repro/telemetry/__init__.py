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
one-shot trace-a-recipe CLI; ``python -m repro.shard run --obs`` for
the sharded run report; and ``python -m repro.telemetry report
--bundle`` for a flight bundle.
"""

from repro._exports import lazy_exports

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

__getattr__ = lazy_exports(globals(), {
    "GlobalMetricsView": ".aggregate", "MergedScalar": ".aggregate",
    "ObsAggregator": ".aggregate", "fairness_summary": ".aggregate",
    "merge_frames": ".aggregate",
    "export_chrome": ".exporters", "export_jsonl": ".exporters",
    "export_prometheus": ".exporters", "parse_chrome": ".exporters",
    "parse_jsonl": ".exporters", "sha256_text": ".exporters",
    "validate_chrome_trace": ".exporters", "write_checksummed": ".exporters",
    "build_bundle": ".flight", "load_bundle": ".flight",
    "summarize_bundle": ".flight", "write_bundle": ".flight",
    "build_report": ".obsreport", "render_markdown": ".obsreport",
    "KernelProbe": ".probe", "Telemetry": ".probe",
    "Counter": ".registry", "Gauge": ".registry",
    "HistogramInstrument": ".registry", "MetricRegistry": ".registry",
    "parse_full_name": ".registry",
    "SloEvaluator": ".slo", "evaluate_slo": ".slo",
    "Span": ".spans", "SpanTracer": ".spans",
    "stitch_trace": ".stitch", "stitched_chrome": ".stitch",
})
