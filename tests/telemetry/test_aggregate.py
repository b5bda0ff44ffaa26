"""Barrier-mediated metric aggregation: frames -> one global registry."""

from __future__ import annotations

import pytest

from repro.errors import ReproError
from repro.metrics.histogram import Histogram
from repro.telemetry.aggregate import (
    FRAME_FORMAT,
    FRAME_VERSION,
    GlobalMetricsView,
    ObsAggregator,
    fairness_summary,
    merge_frames,
)
from repro.telemetry.exporters import export_prometheus


def _frame(core, time=500.0, metrics=None, threads=None, shard=None):
    return {
        "format": FRAME_FORMAT, "version": FRAME_VERSION,
        "core": core, "time": time,
        "metrics": metrics or {},
        "threads": threads or [],
        "shard": shard or {},
    }


def _thread(tid, name, tickets, cpu_ms, dispatches=10, alive=True,
            runnable=True):
    return {"name": name, "tid": tid, "alive": alive,
            "state": "runnable" if runnable else "blocked",
            "runnable": runnable, "tickets": float(tickets),
            "cpu_ms": float(cpu_ms), "dispatches": dispatches}


def _counter(value):
    return {"kind": "counter", "value": float(value)}


def _hist(bins, count, mean):
    return {"kind": "histogram", "bins": bins, "count": count, "mean": mean}


# -- percentile over snapshot bins ---------------------------------------------

def test_percentile_resolves_to_upper_bin_edge():
    bins = [[0.0, 10.0, 50], [10.0, 20.0, 49], [20.0, 30.0, 1]]
    digest = Histogram.from_snapshot(_hist(bins, 100, 9.0))
    assert digest.percentile(50) == 10.0
    assert digest.percentile(99) == 20.0
    assert digest.percentile(100) == 30.0


def test_percentile_empty_and_range_checks():
    assert Histogram.from_snapshot(_hist([], 0, 0.0)).percentile(99) == 0.0
    with pytest.raises(ReproError, match="percentile"):
        Histogram.from_snapshot(_hist([[0.0, 1.0, 1]], 1, 0.5)).percentile(101)


# -- merge_frames --------------------------------------------------------------

def test_counters_sum_across_cores():
    view = merge_frames([
        _frame(0, metrics={"repro_dispatches_total": _counter(7)}),
        _frame(1, metrics={"repro_dispatches_total": _counter(5)}),
    ])
    assert view.get("repro_dispatches_total").value == 12.0
    assert view.as_dict()["repro_dispatches_total"]["value"] == 12.0


def test_histograms_merge_bin_wise():
    view = merge_frames([
        _frame(0, metrics={"lat": _hist([[0.0, 10.0, 4]], 4, 5.0)}),
        _frame(1, metrics={"lat": _hist([[0.0, 10.0, 2],
                                         [10.0, 20.0, 2]], 4, 10.0)}),
    ])
    merged = view.get("lat")
    assert isinstance(merged, Histogram)
    assert merged.count == 8
    assert merged.bins() == [(0.0, 10.0, 6), (10.0, 20.0, 2)]
    assert merged.mean() == pytest.approx(7.5)
    assert merged.percentile(99) == 20.0
    assert view.as_dict()["lat"] == {
        "kind": "histogram", "count": 8, "mean": 7.5,
        "bins": [[0.0, 10.0, 6], [10.0, 20.0, 2]]}
    assert 'lat_bucket{le="20"} 8\nlat_bucket{le="+Inf"} 8\nlat_sum 60\n' \
        in export_prometheus(view)


def test_histograms_merge_past_cores_that_recorded_nothing():
    view = merge_frames([
        _frame(0, metrics={"lat": _hist([], 0, 0.0)}),
        _frame(1, metrics={"lat": _hist([[10.0, 15.0, 2]], 2, 12.0)}),
        _frame(2, metrics={"lat": _hist([], 0, 0.0)}),
    ])
    assert view.get("lat").bins() == [(10.0, 15.0, 2)]
    assert merge_frames([_frame(0, metrics={"lat": _hist([], 0, 0.0)})]) \
        .as_dict()["lat"] == _hist([], 0, 0.0)


def test_histogram_bin_width_conflict_across_cores_raises():
    """Two widths used to interleave into overlapping bins, silently."""
    with pytest.raises(ReproError, match="'lat' has 10-wide.* 5-wide"):
        merge_frames([
            _frame(0, metrics={"lat": _hist([[0.0, 10.0, 4]], 4, 5.0)}),
            _frame(1, metrics={"lat": _hist([[0.0, 5.0, 1],
                                             [5.0, 10.0, 1]], 2, 5.0)}),
        ])


def test_kind_conflict_across_cores_raises():
    with pytest.raises(ReproError, match="conflicting kinds"):
        merge_frames([
            _frame(0, metrics={"m": _counter(1)}),
            _frame(1, metrics={"m": _hist([[0.0, 1.0, 1]], 1, 0.5)}),
        ])


def test_merge_emits_derived_gauges():
    frames = [
        _frame(0, threads=[_thread(1, "a", 100, 600),
                           _thread(2, "b", 100, 400)],
               shard={"payloads_applied": 3, "migrations_out": 1,
                      "evacuations": 0, "casualties": 0}),
        _frame(1, threads=[_thread(1, "c", 200, 1000)],
               shard={"payloads_applied": 2, "migrations_out": 0,
                      "evacuations": 1, "casualties": 1}),
    ]
    view = merge_frames(frames)
    assert view.get("repro_obs_threads_alive").value == 3.0
    assert view.get("repro_obs_tickets_alive").value == 400.0
    assert view.get("repro_obs_cpu_ms").value == 2000.0
    assert view.get("repro_obs_shard_payloads_applied").value == 5.0
    assert view.get("repro_obs_shard_evacuations").value == 1.0
    assert view.get("repro_obs_shard_casualties").value == 1.0


def test_view_is_registry_shaped():
    view = merge_frames([_frame(0, metrics={"z": _counter(1),
                                            "a": _counter(2)})])
    names = [i.full_name for i in view.instruments()]
    assert names == sorted(names)  # canonical order for exporters
    assert len(view) == len(names)
    assert view.get("missing") is None


# -- fairness_summary ----------------------------------------------------------

def test_fairness_normalizes_within_each_core():
    """Each core runs its own lottery: a thread's entitlement is its
    share of *its core's* tickets, not of the global pool."""
    frames = [
        # core 0: 2:1 tickets, cpu exactly proportional -> no error.
        _frame(0, threads=[_thread(1, "a", 200, 800),
                           _thread(2, "b", 100, 400)]),
        # core 1: single thread owns everything -> no error either,
        # even though globally it has 1/4 of tickets and 1/2 of cpu.
        _frame(1, threads=[_thread(1, "c", 100, 1200)]),
    ]
    summary = fairness_summary(frames)
    assert summary["max_abs_error"] == pytest.approx(0.0)
    assert summary["max_rel_error"] == pytest.approx(0.0)
    assert summary["tickets_total"] == 400.0  # globals stay global
    assert summary["cpu_ms_total"] == 2400.0
    assert summary["alive"] == 3 and summary["funded"] == 3


def test_fairness_flags_disproportion():
    frames = [_frame(0, threads=[_thread(1, "hog", 100, 900),
                                 _thread(2, "victim", 100, 100)])]
    summary = fairness_summary(frames)
    # entitlement 0.5 each; hog used 0.9 -> abs error 0.4, rel 0.8.
    assert summary["max_abs_error"] == pytest.approx(0.4)
    assert summary["max_rel_error"] == pytest.approx(0.8)
    rows = {t["name"]: t for t in summary["threads"]}
    assert rows["hog"]["usage"] == pytest.approx(0.9)
    assert rows["victim"]["entitlement"] == pytest.approx(0.5)


def test_fairness_ignores_dead_threads_for_entitlement():
    frames = [_frame(0, threads=[
        _thread(1, "alive", 100, 500),
        _thread(2, "dead", 900, 500, alive=False),
    ])]
    summary = fairness_summary(frames)
    assert summary["alive"] == 1
    assert summary["tickets_total"] == 100.0
    # dead thread's cpu still counts toward the core's consumed cpu.
    assert summary["cpu_ms_total"] == 1000.0


# -- ObsAggregator -------------------------------------------------------------

def test_aggregator_orders_frames_and_replaces_same_time_slice():
    agg = ObsAggregator()
    agg.observe(500.0, [_frame(1), _frame(0)], payloads=2)
    assert [f["core"] for f in agg.latest_frames()] == [0, 1]
    assert len(agg) == 1

    # re-observing an instant replaces its row (idempotent)...
    agg.observe(500.0, [_frame(0), _frame(1)], payloads=3)
    assert agg.rows == [{"seq": 0, "time": 500.0, "kind": "epoch",
                         "payloads": 3}]
    # ...but a stop point at an epoch barrier only refreshes the
    # frames: the row stays what an uninterrupted run records there.
    agg.observe(500.0, [_frame(0, shard={"payloads_applied": 7})],
                payloads=9, kind="stop")
    assert agg.rows == [{"seq": 0, "time": 500.0, "kind": "epoch",
                         "payloads": 3}]
    assert agg.latest_frames()[0]["shard"] == {"payloads_applied": 7}
    # the barrier is listed once time has moved past it.
    assert agg.barrier_instants() == []
    agg.observe(750.0, [_frame(0, time=750.0)], kind="stop")
    assert agg.barrier_instants() == [{"time": 500.0, "payloads": 3}]


def test_aggregator_refuses_a_latency_band_off_the_other_cores_grid():
    """The cross-core wake-to-dispatch digest takes its bin width from
    the first core that binned the band; a core on another grid would
    smear its counts into the wrong bins."""
    name = 'repro_wake_to_dispatch_ms{share="0-5%"}'
    agg = ObsAggregator()
    with pytest.raises(ReproError, match=(
            r"core 1's bin \[0, 10\) is not on the 5-wide grid")):
        agg.observe(500.0, [
            _frame(0, metrics={name: _hist([[0.0, 5.0, 3]], 3, 2.5)}),
            _frame(1, metrics={name: _hist([[0.0, 10.0, 2]], 2, 5.0)}),
        ])


def test_aggregator_barrier_instants_skip_stop_slices():
    agg = ObsAggregator()
    agg.observe(500.0, [_frame(0)], payloads=3)
    agg.observe(750.0, [_frame(0, time=750.0)], kind="stop")
    assert agg.barrier_instants() == [{"time": 500.0, "payloads": 3}]


def test_aggregator_empty_observe_is_a_noop():
    agg = ObsAggregator()
    agg.observe(500.0, [])
    assert len(agg) == 0 and agg.latest_frames() == []
    assert isinstance(agg.merged_metrics(), GlobalMetricsView)


def test_aggregator_rings_view():
    agg = ObsAggregator()
    frame = _frame(0)
    frame["ring"] = {"entries": [{"t": 1}], "spans": []}
    agg.observe(500.0, [frame])
    rings = agg.rings()
    assert rings == [{"core": 0, "time": 500.0,
                      "ring": {"entries": [{"t": 1}], "spans": []}}]
