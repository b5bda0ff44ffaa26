"""Deterministic SLO watchdogs: fairness drift, p99 ceiling, starvation."""

from __future__ import annotations

import json
from unittest import mock

import pytest

from repro.telemetry.slo import evaluate_slo


def _thread(tid, name, tickets, cpu_ms, dispatches, runnable=True,
            alive=True):
    return {"name": name, "tid": tid, "alive": alive,
            "state": "runnable" if runnable else "blocked",
            "runnable": runnable, "tickets": float(tickets),
            "cpu_ms": float(cpu_ms), "dispatches": dispatches}


def _slice(seq, time, frames, kind="epoch"):
    return {"seq": seq, "time": time, "kind": kind, "payloads": 0,
            "frames": frames}


def _series(per_slice_threads, metrics_per_slice=None):
    """Build slices from per-slice thread lists (single core 0)."""
    slices = []
    for index, threads in enumerate(per_slice_threads):
        metrics = (metrics_per_slice[index] if metrics_per_slice
                   else {})
        frame = {"core": 0, "time": (index + 1) * 500.0,
                 "metrics": metrics, "threads": threads}
        slices.append(_slice(index, (index + 1) * 500.0, [frame]))
    return slices


# -- fairness drift ------------------------------------------------------------

def _fairness_series(hog_cpu_per_slice):
    """Two equally funded threads; the hog takes ``hog_cpu_per_slice``
    of every 500ms slice, the victim the rest (both stay runnable)."""
    slices = []
    for index in range(5):  # window 4 -> judged at index 4 only
        t = index + 1
        slices.append(_thread(1, "hog", 100, hog_cpu_per_slice * t,
                              40 * t))
        slices.append(_thread(2, "victim", 100,
                              (500.0 - hog_cpu_per_slice) * t, 40 * t))
    return _series([[slices[2 * i], slices[2 * i + 1]]
                    for i in range(5)])


def test_fairness_over_use_breaches():
    # hog: entitlement 0.5, usage 1.0 -> rel over-use 1.0 > 0.9.
    verdict = evaluate_slo(_fairness_series(500.0))
    assert not verdict["ok"]
    assert verdict["counts"] == {"fairness.drift": 1}
    breach = verdict["breaches"][0]
    assert breach["subject"] == "hog" and breach["core"] == 0
    assert breach["value"] == pytest.approx(1.0)
    assert breach["bound"] == pytest.approx(0.9)


def test_fairness_under_use_is_not_graded():
    """The victim of the hog under-uses by the same margin but is not
    flagged -- barrier snapshots cannot tell blocking from denial, so
    only over-use (an isolation violation) breaches."""
    verdict = evaluate_slo(_fairness_series(500.0))
    assert all(b["subject"] != "victim" for b in verdict["breaches"])


def test_fairness_proportional_usage_passes():
    verdict = evaluate_slo(_fairness_series(250.0))
    assert verdict["ok"] and verdict["checks"] > 0


def test_fairness_skips_statistically_meaningless_windows():
    """Below ``fairness_min_expected_dispatches`` a verdict would
    grade lottery noise; the window is skipped, not judged."""
    slices = _fairness_series(500.0)
    with mock.patch("repro.telemetry.slo.FAIRNESS_MIN_EXPECTED_DISPATCHES",
                    1_000_000.0):
        verdict = evaluate_slo(slices)
    assert verdict["ok"]


def test_fairness_needs_competition():
    """A thread alone on its core cannot drift against anyone."""
    slices = _series([[_thread(1, "solo", 100, 500.0 * (i + 1),
                               40 * (i + 1))]
                      for i in range(5)])
    verdict = evaluate_slo(slices)
    assert verdict["ok"]


# -- latency ceiling -----------------------------------------------------------

def _latency_series(bin_start, bin_end, per_slice=30):
    """Cumulative per-band histogram growing by ``per_slice`` samples
    in one bin every slice."""
    name = 'repro_wake_to_dispatch_ms{share="0-5%"}'
    metrics = []
    for index in range(5):
        count = per_slice * (index + 1)
        metrics.append({name: {
            "kind": "histogram", "count": count,
            "mean": (bin_start + bin_end) / 2.0,
            "bins": [[bin_start, bin_end, count]],
        }})
    return _series([[ _thread(1, "t", 100, 500.0 * (i + 1), 40 * (i + 1))]
                    for i in range(5)], metrics)


def test_latency_p99_breaches_above_ceiling():
    verdict = evaluate_slo(_latency_series(2400.0, 2600.0))
    assert {"rule": b["rule"] for b in verdict["breaches"]} == \
        {"rule": "latency.p99"}
    breach = verdict["breaches"][0]
    assert breach["subject"] == "0-5%"
    assert breach["value"] == 2600.0  # conservative upper bin edge


def test_latency_under_ceiling_passes():
    verdict = evaluate_slo(_latency_series(10.0, 20.0))
    assert verdict["ok"] and verdict["checks"] > 0


def test_latency_skips_thin_windows():
    verdict = evaluate_slo(_latency_series(2400.0, 2600.0, per_slice=2))
    assert verdict["ok"]  # 8 samples in the window < min_samples 20


# -- starvation ----------------------------------------------------------------

def test_starving_runnable_thread_breaches():
    slices = _series([[
        _thread(1, "busy", 100, 500.0 * (i + 1), 40 * (i + 1)),
        _thread(2, "starved", 100, 0.0, 0),
    ] for i in range(7)])  # starvation window 6 -> judged at index 6
    verdict = evaluate_slo(slices)
    assert any(b["rule"] == "starvation"
               and b["subject"] == "starved" for b in verdict["breaches"])


def test_blocked_thread_is_not_starving():
    slices = _series([[
        _thread(1, "busy", 100, 500.0 * (i + 1), 40 * (i + 1)),
        _thread(2, "sleeper", 100, 0.0, 0, runnable=False),
    ] for i in range(7)])
    verdict = evaluate_slo(slices)
    assert all(b["rule"] != "starvation" for b in verdict["breaches"])


# -- determinism ---------------------------------------------------------------

def test_verdict_is_a_pure_function_of_the_slices():
    slices = _fairness_series(500.0)
    first = evaluate_slo(slices)
    second = evaluate_slo(json.loads(json.dumps(slices)))
    assert json.dumps(first, sort_keys=True) == \
        json.dumps(second, sort_keys=True)
    assert first["policy"]["fairness_window"] == 4  # policy is recorded
