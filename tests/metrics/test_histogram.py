"""Tests for the fixed-bin digest."""

import math

import pytest

from repro.errors import ReproError
from repro.metrics.histogram import Histogram


def _filled(bin_width, values, name="histogram"):
    histogram = Histogram(bin_width, name)
    for value in values:
        histogram.record(value)
    return histogram


class TestHistogram:
    def test_binning(self):
        histogram = _filled(10.0, [0.0, 5.0, 9.9, 10.0, 25.0])
        bins = histogram.bins()
        assert bins == [(0.0, 10.0, 3), (10.0, 20.0, 1), (20.0, 30.0, 1)]

    def test_mean_total_and_max(self):
        histogram = _filled(1.0, [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0])
        assert histogram.count == 8
        assert histogram.total == 40.0
        assert histogram.mean() == 5.0
        assert histogram.max == 9.0

    def test_mean_is_sequential_ieee_addition(self):
        # 3.12+ ``sum`` compensates (-> 1e16 + 2); the running total
        # must not, so every interpreter exports the same mean.
        histogram = _filled(1e16, [1e16, 1.0, 1.0])
        assert histogram.total == 1e16
        assert histogram.mean() == 1e16 / 3

    def test_empty_statistics(self):
        histogram = Histogram(1.0)
        assert histogram.mean() == 0.0
        assert histogram.count == 0
        assert histogram.percentile(50) == 0.0

    def test_percentiles(self):
        """Nearest rank, resolved to the upper edge of the sample's bin."""
        histogram = _filled(1.0, (float(v) for v in range(1, 101)))
        assert histogram.percentile(50) == 51.0
        assert histogram.percentile(90) == 91.0
        assert histogram.percentile(100) == 101.0
        assert histogram.percentile(0) == 2.0
        coarse = _filled(10.0, [1.0] * 50 + [11.0] * 49 + [21.0])
        assert coarse.percentile(50) == 10.0
        assert coarse.percentile(99) == 20.0
        assert coarse.percentile(100) == 30.0
        # rank = ceil(q * n / 100); (q / 100) * n would make 70 % of 10
        # the 8th sample (0.7 * 10 == 7.000000000000001).
        assert _filled(1.0, map(float, range(10))).percentile(70) == 7.0

    def test_invalid_inputs(self):
        with pytest.raises(ReproError):
            Histogram(0.0)
        histogram = Histogram(1.0)
        with pytest.raises(ReproError):
            histogram.record(-1.0)
        with pytest.raises(ReproError):
            histogram.percentile(101)

    @pytest.mark.parametrize("width", [math.nan, math.inf, -math.inf])
    def test_a_non_finite_width_is_refused_by_name(self, width):
        # NaN used to be accepted and to fail only at the first record
        # ("no bin holds 3.0"); inf reported p99 = inf.
        with pytest.raises(ReproError, match="'wake_ms'.*bin width"):
            Histogram(width, "wake_ms")

    @pytest.mark.parametrize("value", [
        math.nan, math.inf, -math.inf,
        pytest.param(10 ** 400, id="beyond-float")])
    def test_a_value_no_bin_holds_is_refused_by_name(self, value):
        histogram = _filled(5.0, [1.0, 7.0], name="wake_ms")
        with pytest.raises(ReproError, match="'wake_ms'.*(nan|inf|1000)"):
            histogram.record(value)
        # Refused whole: nothing counted, summed or binned.
        assert (histogram.count, histogram.total, histogram.max) \
            == (2, 8.0, 7.0)
        assert histogram.counts == {0: 1, 1: 1}


class TestEmptyHistogram:
    def test_percentiles_on_empty_histogram_are_zero(self):
        histogram = Histogram(10.0)
        for q in (0, 50, 95, 100):
            assert histogram.percentile(q) == 0.0

    def test_empty_histogram_summary_stats(self):
        histogram = Histogram(10.0)
        assert histogram.count == 0
        assert histogram.mean() == 0.0
        assert histogram.max == 0.0
        assert histogram.bins() == []

    def test_percentile_bounds_still_enforced_when_empty(self):
        histogram = Histogram(10.0)
        with pytest.raises(ReproError):
            histogram.percentile(-0.1)
        with pytest.raises(ReproError):
            histogram.percentile(100.1)


class TestBinBoundaries:
    def test_value_on_exact_bin_boundary_opens_the_next_bin(self):
        histogram = Histogram(10.0)
        histogram.record(10.0)
        assert histogram.bins() == [(10.0, 20.0, 1)]

    def test_zero_lands_in_first_bin(self):
        histogram = Histogram(10.0)
        histogram.record(0.0)
        assert histogram.bins() == [(0.0, 10.0, 1)]


class TestMerge:
    def test_merge_adds_bins_and_scalars(self):
        merged = _filled(10.0, [1.0, 12.0])
        merged.merge(_filled(10.0, [3.0, 47.5]))
        assert merged.bins() == [(0.0, 10.0, 2), (10.0, 20.0, 1),
                                 (40.0, 50.0, 1)]
        assert (merged.count, merged.total, merged.max) == (4, 63.5, 47.5)

    def test_merge_refuses_another_bin_width(self):
        histogram = _filled(5.0, [1.0], name="left")
        with pytest.raises(ReproError, match="'left' has 5-wide.*'right' 10"):
            histogram.merge(_filled(10.0, [1.0], name="right"))
        assert histogram.count == 1

    def test_merging_an_empty_digest_changes_nothing(self):
        histogram = _filled(5.0, [1.0])
        histogram.merge(Histogram(10.0))
        assert histogram.bins() == [(0.0, 5.0, 1)]


class TestSince:
    def test_window_holds_only_what_arrived_after_the_baseline(self):
        histogram = _filled(10.0, [1.0, 15.0])
        baseline = histogram.copy()
        histogram.record(17.0)
        histogram.record(95.0)
        window = histogram.since(baseline)
        assert window.bins() == [(10.0, 20.0, 1), (90.0, 100.0, 1)]
        assert (window.count, window.total) == (2, 112.0)
        assert window.percentile(99) == 100.0
        assert baseline.count == 2  # a copy, not a view

    def test_no_baseline_means_everything(self):
        histogram = _filled(10.0, [1.0, 15.0])
        assert histogram.since(None).bins() == histogram.bins()

    def test_a_baseline_that_is_not_a_prefix_never_goes_negative(self):
        window = _filled(10.0, [1.0]).since(_filled(10.0, [2.0, 3.0, 15.0]))
        assert (window.count, window.bins()) == (0, [])

    def test_since_refuses_another_bin_width(self):
        with pytest.raises(ReproError, match="cannot be combined"):
            _filled(10.0, [1.0]).since(_filled(5.0, [1.0]))


class TestSnapshot:
    def test_round_trip(self):
        histogram = _filled(5.0, [1.0, 6.0, 6.5, 11.0])
        snapshot = histogram.snapshot_state()
        assert snapshot == {"count": 4, "mean": 6.125,
                            "bins": [[0.0, 5.0, 1], [5.0, 10.0, 2],
                                     [10.0, 15.0, 1]]}
        rebuilt = Histogram.from_snapshot(snapshot, "rebuilt")
        assert rebuilt.bin_width == 5.0
        assert rebuilt.snapshot_state() == snapshot
        assert (rebuilt.total, rebuilt.max) == (24.5, 15.0)

    def test_empty_snapshot_is_an_empty_digest(self):
        rebuilt = Histogram.from_snapshot(Histogram(5.0).snapshot_state())
        assert (rebuilt.count, rebuilt.bins()) == (0, [])

    def test_bins_off_the_first_bins_grid_are_refused(self):
        with pytest.raises(ReproError, match="'lat'.*not on the 10-wide"):
            Histogram.from_snapshot(
                {"count": 2, "mean": 1.0,
                 "bins": [[0.0, 10.0, 1], [15.0, 20.0, 1]]}, "lat")

    @pytest.mark.parametrize("snapshot, named", [
        ({}, "no 'bins' field"),
        ({"bins": [[0.0, 5.0, 1]], "mean": 1.0}, "no 'count' field"),
        ({"bins": [[0.0, 5.0, 1]], "count": 1}, "no 'mean' field"),
        (5, "no 'bins' field"),
        ({"count": 1, "mean": 1.0, "bins": [[0]]}, r"bin \[0\] is not"),
        ({"count": 1, "mean": 1.0, "bins": [[0.0, 5.0, 1], [5.0]]},
         r"bin \[5.0\] is not"),
        ({"count": 1, "mean": 1.0, "bins": [["a", "b", 1]]}, "is not a"),
        ({"count": 1, "mean": 1.0, "bins": [[0.0, float("nan"), 1]]},
         "is not a"),
        ({"count": 1, "mean": 1.0, "bins": 5}, "list of bins"),
        ({"count": "x", "mean": 1.0, "bins": []}, "numeric count"),
        ({"count": 1, "mean": None, "bins": []}, "numeric count and mean"),
    ])
    def test_malformed_snapshots_are_refused_by_name(self, snapshot, named):
        with pytest.raises(ReproError, match=f"'lat'.*{named}"):
            Histogram.from_snapshot(snapshot, "lat")
