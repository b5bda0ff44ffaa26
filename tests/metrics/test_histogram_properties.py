"""The one digest against a naive oracle, under generated inputs.

The oracle keeps every sample in a sorted list and answers a percentile
with the *exact* nearest-rank sample; the digest must answer with the
upper edge of the bin that sample falls in -- on the recording path, on
the merged path, on the windowed path and on the snapshot path alike.

Samples are multiples of 1/8 and bin widths are short binary fractions,
so sums and bin edges are exact and ``==`` is the right comparison.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ReproError
from repro.metrics.histogram import Histogram
from repro.serving.shardplan import serving_plan
from repro.serving.slo_controller import ClassLatencyProbe
from repro.shard.engine import ShardedEngine
from repro.telemetry.aggregate import merge_frames
from repro.telemetry.registry import MetricRegistry

_WIDTHS = st.sampled_from([0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 250.0])
_SAMPLES = st.lists(st.integers(0, 8_000).map(lambda k: k / 8), max_size=60)
#: Quarter steps: ``q * n`` is exact, so the digest's float rank and the
#: oracle's rational one cannot disagree about a ceiling.
_QS = st.integers(0, 400).map(lambda k: k / 4)
_BAD_QS = st.one_of(st.floats(max_value=-1e-9, allow_nan=False),
                    st.floats(min_value=100.000001, allow_nan=False))


def _digest(width, samples):
    digest = Histogram(width)
    for sample in samples:
        digest.record(sample)
    return digest


def _facts(digest):
    return (digest.bin_width, digest.count, digest.total, digest.max,
            digest.bins())


def _oracle_percentile(width, samples, q):
    """Upper edge of the bin holding the exact nearest-rank sample."""
    if not samples:
        return 0.0
    rank = max(1, math.ceil(Fraction(q) * len(samples) / 100))
    sample = sorted(samples)[rank - 1]
    return (math.floor(Fraction(sample) / Fraction(width)) + 1) * width


def _cut(data, samples, parts):
    """``samples`` split into ``parts`` consecutive (maybe empty) runs."""
    cuts = sorted(data.draw(st.lists(st.integers(0, len(samples)),
                                     min_size=parts - 1, max_size=parts - 1)))
    return [samples[a:b] for a, b in zip([0] + cuts, cuts + [len(samples)])]


@settings(max_examples=200, deadline=None)
@given(width=_WIDTHS, samples=_SAMPLES, q=_QS)
def test_recording_agrees_with_the_sorted_list_oracle(width, samples, q):
    digest = _digest(width, samples)
    assert digest.count == len(samples)
    assert digest.total == sum(samples)
    assert digest.max == max(samples, default=0.0)
    assert digest.mean() == (sum(samples) / len(samples) if samples else 0.0)
    assert digest.percentile(q) == _oracle_percentile(width, samples, q)


@settings(max_examples=100, deadline=None)
@given(width=_WIDTHS, samples=_SAMPLES, parts=st.integers(1, 5), q=_QS,
       data=st.data())
def test_merge_of_any_split_is_the_digest_of_the_concatenation(
        width, samples, parts, q, data):
    merged = Histogram(width)
    for run in _cut(data, samples, parts):
        merged.merge(_digest(width, run))
    assert _facts(merged) == _facts(_digest(width, samples))
    assert merged.percentile(q) == _oracle_percentile(width, samples, q)


@settings(max_examples=100, deadline=None)
@given(width=_WIDTHS, samples=_SAMPLES, q=_QS, data=st.data())
def test_window_plus_baseline_is_the_current_digest(width, samples, q, data):
    before, after = _cut(data, samples, 2)
    digest = _digest(width, before)
    baseline = digest.copy()
    for sample in after:
        digest.record(sample)
    window = digest.since(baseline)
    assert (window.count, window.total, window.bins()) == (
        len(after), sum(after), _digest(width, after).bins())
    assert window.percentile(q) == _oracle_percentile(width, after, q)
    window.merge(baseline)
    assert _facts(window) == _facts(digest)


@settings(max_examples=100, deadline=None)
@given(width=_WIDTHS, samples=_SAMPLES, q=_QS)
def test_snapshot_constructor_snapshot_is_the_identity(width, samples, q):
    digest = _digest(width, samples)
    wire = json.loads(json.dumps(digest.snapshot_state()))
    rebuilt = Histogram.from_snapshot(wire)
    assert rebuilt.snapshot_state() == wire == digest.snapshot_state()
    assert rebuilt.percentile(q) == digest.percentile(q)
    if samples:
        assert rebuilt.bin_width == width


@settings(max_examples=50, deadline=None)
@given(width=_WIDTHS, samples=_SAMPLES, parts=st.integers(1, 4), q=_QS,
       data=st.data())
def test_merged_frames_answer_like_one_core_that_saw_everything(
        width, samples, parts, q, data):
    frames = []
    for core, run in enumerate(_cut(data, samples, parts)):
        registry = MetricRegistry()
        instrument = registry.histogram("lat", width)
        for sample in run:
            instrument.record(sample)
        frames.append(json.loads(json.dumps(
            {"core": core, "metrics": registry.as_dict()})))
    merged = merge_frames(frames).get("lat")
    assert (merged.count, merged.bins()) == (
        len(samples), _digest(width, samples).bins())
    assert merged.percentile(q) == _oracle_percentile(width, samples, q)


@given(q=_BAD_QS, samples=_SAMPLES)
def test_out_of_range_percentile_raises_on_every_path(q, samples):
    digest = _digest(5.0, samples)
    registry = MetricRegistry()
    instrument = registry.histogram("lat", 5.0)
    probe = ClassLatencyProbe()
    for sample in samples:
        instrument.record(sample)
        probe.digest("gold").record(sample)
    frame = {"core": 0, "metrics": registry.as_dict()}
    for path in (digest, digest.copy(), digest.since(None),
                 digest.since(Histogram(5.0)),
                 Histogram.from_snapshot(digest.snapshot_state()),
                 instrument, probe.digest("gold"),
                 merge_frames([frame]).get("lat")):
        with pytest.raises(ReproError, match="percentile"):
            path.percentile(q)


def test_a_hub_histogram_holds_bins_not_samples():
    instrument = MetricRegistry().histogram("lat", 5.0)
    for index in range(100_000):
        instrument.record(float(index % 15))
    assert instrument.counts == {0: 33_335, 1: 33_335, 2: 33_330}
    assert instrument.count == 100_000
    containers = {name: value for name, value in vars(instrument).items()
                  if isinstance(value, (list, tuple, set, dict))}
    assert containers == {"counts": instrument.counts}


def test_one_core_merged_view_equals_the_cores_own_registry():
    with ShardedEngine(serving_plan(seed=3, cores=1), shards=1,
                       backend="inline", obs=True) as engine:
        engine.advance(4_000.0)
        view = engine.metrics_view()
        own = engine._backend.cores[0].telemetry.registry
        histograms = [i for i in own.instruments() if i.kind == "histogram"]
        assert histograms and sum(i.count for i in histograms) > 100
        for instrument in histograms:
            merged = view.get(instrument.full_name)
            assert type(merged) is type(instrument)
            assert merged.count == instrument.count
            assert merged.bins() == instrument.bins()
            # The wire carries the mean, not the total: the merged mean
            # is (mean * count) / count, within an ulp of the core's.
            assert merged.mean() == pytest.approx(instrument.mean(),
                                                  rel=1e-15)
            for q in (50, 99):
                assert merged.percentile(q) == instrument.percentile(q)
