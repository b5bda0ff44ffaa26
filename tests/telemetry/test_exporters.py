"""Exporters: round-trips, checksums, and byte-identical determinism."""

import json

import pytest

from repro.checkpoint.registry import build_recipe
from repro.errors import ReproError
from repro.telemetry import (
    Telemetry,
    export_chrome,
    export_jsonl,
    export_prometheus,
    parse_chrome,
    parse_jsonl,
    sha256_text,
    validate_chrome_trace,
    write_checksummed,
)
from repro.telemetry.registry import MetricRegistry
from repro.telemetry.spans import SpanTracer


def _sample_tracer():
    tracer = SpanTracer()
    quantum = tracer.begin("node0", "quantum", "kernel", 0.0,
                           {"thread": "w0"})
    tracer.event("node0", "lottery.draw", "scheduler", 0.0,
                 {"winner": "w0", "funding": 100.0})
    tracer.end(quantum, 20.0, {"outcome": "preempt"})
    tracer.complete("node0", "ipc.rpc", "ipc", 3.0, 33.0, {"port": "db"})
    return tracer


def _sample_registry():
    registry = MetricRegistry()
    registry.counter("repro_dispatches_total", {"track": "node0"},
                     help="dispatches").inc(3)
    registry.gauge("repro_depth").set(2.0)
    histogram = registry.histogram("repro_latency_ms", 5.0,
                                   help="latency")
    for value in (1.0, 2.0, 7.0, 12.0):
        histogram.record(value)
    return registry


class TestJsonl:
    def test_round_trip_spans_and_metrics(self):
        tracer, registry = _sample_tracer(), _sample_registry()
        text = export_jsonl(tracer, registry)
        spans, metrics = parse_jsonl(text)
        assert spans == tracer.spans
        assert metrics == registry.as_dict()

    def test_checksum_footer_detects_tampering(self):
        text = export_jsonl(_sample_tracer())
        tampered = text.replace('"quantum"', '"quantuX"')
        with pytest.raises(ReproError, match="checksum mismatch"):
            parse_jsonl(tampered)

    def test_rejects_foreign_stream(self):
        with pytest.raises(ReproError, match="not a"):
            parse_jsonl('{"kind":"header","format":"something-else"}\n{}')


class TestChrome:
    def test_round_trip_preserves_span_tree(self):
        tracer = _sample_tracer()
        spans = parse_chrome(export_chrome(tracer))
        assert spans == sorted(tracer.spans, key=lambda s: s.sid)

    def test_schema_valid(self):
        assert validate_chrome_trace(export_chrome(_sample_tracer())) == []

    def test_validator_flags_problems(self):
        bad = json.dumps({"traceEvents": [
            {"ph": "X", "pid": 0, "tid": 0, "name": "q", "ts": 0.0,
             "dur": -5.0},
            {"ph": "?", "pid": 0, "tid": 0, "name": "x", "ts": 0.0},
            {"ph": "i", "pid": 0, "tid": 0, "name": "e", "ts": 0.0,
             "s": "q"},
        ]})
        problems = validate_chrome_trace(bad)
        assert any("negative dur" in p for p in problems)
        assert any("unknown phase" in p for p in problems)
        assert any("scope" in p for p in problems)

    def test_checksum_detects_tampering(self):
        text = export_chrome(_sample_tracer())
        tampered = text.replace('"quantum"', '"quantuX"')
        with pytest.raises(ReproError, match="checksum mismatch"):
            parse_chrome(tampered)

    def test_timestamps_are_microseconds(self):
        payload = json.loads(export_chrome(_sample_tracer()))
        quantum = next(e for e in payload["traceEvents"]
                       if e.get("name") == "quantum")
        assert quantum["ts"] == 0.0 and quantum["dur"] == 20_000.0


class TestPrometheus:
    def test_text_format_with_histogram_series(self):
        text = export_prometheus(_sample_registry())
        lines = text.splitlines()
        assert "# TYPE repro_dispatches_total counter" in lines
        assert 'repro_dispatches_total{track="node0"} 3' in lines
        assert "repro_depth 2" in lines
        assert 'repro_latency_ms_bucket{le="5"} 2' in lines
        assert 'repro_latency_ms_bucket{le="10"} 3' in lines
        assert 'repro_latency_ms_bucket{le="15"} 4' in lines
        assert 'repro_latency_ms_bucket{le="+Inf"} 4' in lines
        assert "repro_latency_ms_count 4" in lines

    def test_trailing_checksum_comment_matches_body(self):
        text = export_prometheus(_sample_registry())
        body, checksum_line = text.rstrip("\n").rsplit("\n", 1)
        assert checksum_line == f"# sha256 {sha256_text(body)}"


class TestFiles:
    def test_write_checksummed_sidecar(self, tmp_path):
        path = tmp_path / "out" / "trace.json"
        digest = write_checksummed(str(path), "payload\n")
        assert path.read_text() == "payload\n"
        sidecar = (tmp_path / "out" / "trace.json.sha256").read_text()
        assert sidecar == f"{digest}  trace.json\n"
        assert digest == sha256_text("payload\n")


class TestDeterminism:
    def _traced_mix(self, seed=2718, until=30_000.0, **hub_options):
        handle = build_recipe("lottery-mix", {"seed": seed})
        hub = Telemetry(**hub_options)
        hub.instrument_handle(handle)
        handle.advance(until)
        hub.finalize(handle.now)
        exports = (export_chrome(hub.tracer),
                   export_jsonl(hub.tracer, hub.registry),
                   export_prometheus(hub.registry))
        hub.close()
        return exports

    def test_same_seed_exports_are_byte_identical(self):
        first = self._traced_mix()
        second = self._traced_mix()
        assert first == second

    def test_different_seed_diverges(self):
        assert self._traced_mix(seed=2718) != self._traced_mix(seed=99)

    def test_export_taken_after_eviction_is_pinned(self):
        # 10 356 spans through a 5 000-span bound: what is exported is
        # what survived drop-oldest, sids and parents untouched.  The
        # digests are those of ``python -m repro.telemetry --recipe
        # lottery-mix --run-until 300000 --max-spans 5000 --jsonl ...
        # --chrome ...``.
        chrome, jsonl, _ = self._traced_mix(until=300_000.0, max_spans=5000)
        header = json.loads(jsonl.splitlines()[0])
        assert (header["spans"], header["dropped_spans"]) == (5000, 5356)
        assert sha256_text(jsonl) == ("0d51eac262883b286821f202ad813510"
                                      "ec7a5839dfa1ab13cfcf1fc45e24d2b9")
        assert sha256_text(chrome) == ("abf7d8733702dca4c5e72d914a25faf8"
                                       "19eb072e94841d725ac26491b7d8bb46")


class TestPrometheusSanitization:
    """Exposition-format hygiene: the registry allows dotted/spaced
    names (e.g. the supervisor's ``shard.restart`` counters), the
    exporter must emit legal Prometheus families anyway."""

    def test_dotted_names_and_spaced_labels_are_sanitized(self):
        registry = MetricRegistry()
        registry.counter("shard.restart", {"fault kind": "kill"},
                         help="worker restarts").inc(2)
        text = export_prometheus(registry)
        assert 'shard_restart{fault_kind="kill"} 2' in text
        assert "# HELP shard_restart worker restarts" in text
        assert "# TYPE shard_restart counter" in text
        assert "shard.restart" not in text

    def test_histograms_render_help_type_and_le_series(self):
        registry = MetricRegistry()
        histogram = registry.histogram("repro_latency_ms", 5.0,
                                       {"shard id": "s0"}, help="lat")
        histogram.record(7.0)
        text = export_prometheus(registry)
        assert text.count("# TYPE repro_latency_ms histogram") == 1
        assert 'repro_latency_ms_bucket{shard_id="s0",le="10"} 1' in text
        assert 'repro_latency_ms_bucket{shard_id="s0",le="+Inf"} 1' in text
        assert 'repro_latency_ms_sum{shard_id="s0"} 7' in text
        assert 'repro_latency_ms_count{shard_id="s0"} 1' in text

    def test_label_values_escape_backslash_and_newline(self):
        registry = MetricRegistry()
        registry.counter("evil", {"msg": "a\\b\nc"}).inc()
        text = export_prometheus(registry)
        assert 'evil{msg="a\\\\b\\nc"} 1' in text

    def test_every_sample_line_is_legal_exposition(self):
        import re
        sample = re.compile(
            r'^[a-zA-Z_:][a-zA-Z0-9_:]*'
            r'(\{[a-zA-Z_][a-zA-Z0-9_]*="[^"\n]*"'
            r'(,[a-zA-Z_][a-zA-Z0-9_]*="[^"\n]*")*\})? \S+$')
        registry = MetricRegistry()
        registry.counter("shard.worker restart", {"shard id": "0"}).inc()
        registry.gauge("a-b.c").set(1.0)
        registry.histogram("d e", 1.0, {"x y": "z"}).record(0.5)
        for line in export_prometheus(registry).splitlines():
            if line.startswith("#"):
                continue
            assert sample.match(line), line

    def test_sanitization_is_identity_on_legal_names(self):
        first = export_prometheus(_sample_registry())
        assert "repro_dispatches_total" in first
        assert first == export_prometheus(_sample_registry())
