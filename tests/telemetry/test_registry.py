"""MetricRegistry: identity, kinds, and instrument semantics."""

import math

import pytest

from repro.errors import ReproError
from repro.metrics.histogram import Histogram
from repro.telemetry.exporters import export_prometheus
from repro.telemetry.registry import MetricRegistry, render_name


class TestIdentity:
    def test_get_or_create_returns_same_instrument(self):
        registry = MetricRegistry()
        a = registry.counter("dispatches", {"track": "node0"})
        b = registry.counter("dispatches", {"track": "node0"})
        assert a is b
        assert len(registry) == 1

    def test_labels_render_sorted(self):
        assert render_name("m", {"b": "2", "a": "1"}) == 'm{a="1",b="2"}'
        assert render_name("m") == "m"

    def test_label_order_does_not_split_identity(self):
        registry = MetricRegistry()
        a = registry.counter("m", {"x": "1", "y": "2"})
        b = registry.counter("m", {"y": "2", "x": "1"})
        assert a is b

    def test_kind_conflict_raises(self):
        registry = MetricRegistry()
        registry.counter("m")
        with pytest.raises(ReproError, match="is a counter"):
            registry.gauge("m")
        with pytest.raises(ReproError, match="not a histogram"):
            registry.histogram("m", 5.0)

    def test_histogram_bin_width_conflict_raises(self):
        registry = MetricRegistry()
        registry.histogram("h", 5.0)
        with pytest.raises(ReproError, match="bin "):
            registry.histogram("h", 10.0)

    def test_get_does_not_create(self):
        registry = MetricRegistry()
        assert registry.get("missing") is None
        assert len(registry) == 0


class TestInstruments:
    def test_counter_is_monotonic(self):
        registry = MetricRegistry()
        counter = registry.counter("c")
        counter.inc()
        counter.inc(2.5)
        assert counter.value == 3.5
        with pytest.raises(ReproError, match="cannot decrease"):
            counter.inc(-1.0)

    def test_counter_refuses_nan_instead_of_absorbing_it(self):
        registry = MetricRegistry()
        counter = registry.counter("c", {"track": "k"})
        counter.inc(2.0)
        with pytest.raises(ReproError, match=r'c\{track="k"\}.*nan'):
            counter.inc(math.nan)
        assert counter.value == 2.0
        assert "nan" not in export_prometheus(registry)

    def test_gauge_moves_both_ways(self):
        registry = MetricRegistry()
        gauge = registry.gauge("g")
        gauge.set(5.0)
        gauge.add(-2.0)
        assert gauge.value == 3.0

    def test_histogram_is_the_metrics_histogram(self):
        registry = MetricRegistry()
        histogram = registry.histogram("h", 5.0, help="latency")
        assert isinstance(histogram, Histogram)
        assert (histogram.full_name, histogram.help, histogram.kind) == \
            ("h", "latency", "histogram")
        for value in (1.0, 6.0, 11.0):
            histogram.record(value)
        assert histogram.count == 3
        assert histogram.mean() == pytest.approx(6.0)
        assert histogram.percentile(100) == 15.0  # upper edge of 11's bin

    def test_histogram_rejects_negative_observations(self):
        registry = MetricRegistry()
        histogram = registry.histogram("h", 5.0)
        with pytest.raises(ReproError):
            histogram.record(-1.0)

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_histogram_refuses_nan_and_inf_by_instrument_name(self, value):
        registry = MetricRegistry()
        histogram = registry.histogram("h", 5.0, {"share": "0-5%"})
        with pytest.raises(ReproError, match=r'h\{share="0-5%"\}'):
            histogram.record(value)
        assert histogram.count == 0 and histogram.counts == {}


class TestExportViews:
    def test_instruments_sorted_by_full_name(self):
        registry = MetricRegistry()
        registry.counter("z")
        registry.counter("a")
        registry.gauge("m", {"k": "v"})
        names = [i.full_name for i in registry.instruments()]
        assert names == sorted(names)

    def test_as_dict_snapshots(self):
        registry = MetricRegistry()
        registry.counter("c").inc(2)
        registry.histogram("h", 5.0).record(7.0)
        snapshot = registry.as_dict()
        assert snapshot["c"] == {"kind": "counter", "value": 2.0}
        assert snapshot["h"] == {"kind": "histogram", "count": 1,
                                 "mean": 7.0, "bins": [[5.0, 10.0, 1]]}
        assert list(snapshot["h"]) == ["kind", "count", "mean", "bins"]

    def test_changed_since_lists_what_moved_with_absolute_values(self):
        registry = MetricRegistry()
        counter, idle = registry.counter("c"), registry.gauge("idle")
        digest = registry.histogram("h", 5.0)
        counter.inc(2)
        digest.record(7.0)
        seen = {}
        # from nothing, the delta is the whole registry, zeros included.
        assert registry.changed_since(seen) == registry.as_dict()
        assert registry.changed_since(seen) == {}
        counter.inc()
        digest.record(8.0)
        digest.record(21.0)
        assert registry.changed_since(seen) == {
            "c": {"kind": "counter", "value": 3.0},
            "h": {"kind": "histogram", "count": 3, "mean": 12.0,
                  "bins": [[5.0, 10.0, 2], [20.0, 25.0, 1]]}}
        idle.set(4.0)
        idle.set(0.0)  # back where the baseline saw it: nothing to tell
        registry.counter("late")
        assert registry.changed_since(seen) == {
            "late": {"kind": "counter", "value": 0.0}}
