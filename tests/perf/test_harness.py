"""Unit tests for the repro.perf harness, baselines, and CLI."""

from __future__ import annotations

import json
import os

import pytest

from repro.errors import ReproError
from repro.perf.baseline import (compare_reports, format_comparison_table,
                                 load_report, write_report)
from repro.perf.harness import (CALIBRATION_NAME, BenchmarkResult, PerfReport,
                                environment_fingerprint, percentile,
                                run_benchmarks)


def _result(name: str, ops_per_sec: float,
            normalized: float = None) -> BenchmarkResult:
    return BenchmarkResult(
        name=name, params={}, reps=3, ops=100, ops_per_sec=ops_per_sec,
        normalized=normalized, p50_ms=1.0, p95_ms=2.0, samples_ms=[1.0],
    )


def _report(calibration, *results) -> PerfReport:
    return PerfReport(fingerprint=environment_fingerprint(),
                      calibration_ops_per_sec=calibration,
                      results=list(results))


# -- percentile -------------------------------------------------------------


def test_percentile_nearest_rank():
    samples = [5.0, 1.0, 3.0, 2.0, 4.0]
    assert percentile(samples, 0.0) == 1.0
    assert percentile(samples, 0.5) == 3.0
    assert percentile(samples, 1.0) == 5.0


def test_percentile_rejects_empty_and_out_of_range():
    with pytest.raises(ReproError):
        percentile([], 0.5)
    with pytest.raises(ReproError):
        percentile([1.0], 1.5)


# -- run_benchmarks ---------------------------------------------------------


def test_run_benchmarks_times_and_normalizes():
    calls = []

    def setup():
        def fn():
            calls.append(1)
        return fn, 10

    report = run_benchmarks([("toy.noop", {"n": 10}, setup)], reps=3)
    assert len(calls) == 3  # fresh setup per repetition
    assert report.calibration_ops_per_sec > 0
    entry = report.result("toy.noop")
    assert entry is not None
    assert entry.ops == 10
    assert entry.reps == 3
    assert entry.ops_per_sec > 0
    assert entry.normalized == pytest.approx(
        entry.ops_per_sec / report.calibration_ops_per_sec)
    assert len(entry.samples_ms) == 3
    assert report.result(CALIBRATION_NAME) is not None


def test_run_benchmarks_filter_keeps_calibration():
    def setup():
        return (lambda: None), 1

    report = run_benchmarks(
        [("keep.me", {}, setup), ("drop.me", {}, setup)],
        reps=1, name_filter="keep")
    names = [entry.name for entry in report.results]
    assert CALIBRATION_NAME in names
    assert "keep.me" in names
    assert "drop.me" not in names


def test_run_benchmarks_rejects_nonpositive_reps():
    with pytest.raises(ReproError):
        run_benchmarks([], reps=0)


# -- report round-trip ------------------------------------------------------


def test_report_round_trips_through_json(tmp_path):
    report = _report(1000.0, _result("a.b", 50.0, normalized=0.05))
    path = tmp_path / "BENCH_perf.json"
    write_report(str(path), report)
    loaded = load_report(str(path))
    assert loaded.calibration_ops_per_sec == 1000.0
    assert loaded.result("a.b").ops_per_sec == 50.0
    assert loaded.result("a.b").normalized == 0.05
    # Schema markers are present in the file itself.
    data = json.loads(path.read_text())
    assert data["format"] == "repro-perf"
    assert data["schema_version"] == 1


def test_load_report_rejects_wrong_format_and_schema(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"format": "other", "schema_version": 1}))
    with pytest.raises(ReproError, match="not a repro-perf report"):
        load_report(str(path))
    path.write_text(json.dumps({"format": "repro-perf",
                                "schema_version": 999}))
    with pytest.raises(ReproError, match="schema"):
        load_report(str(path))
    path.write_text("not json")
    with pytest.raises(ReproError, match="not valid JSON"):
        load_report(str(path))
    with pytest.raises(ReproError, match="cannot read"):
        load_report(str(tmp_path / "missing.json"))


# -- comparison -------------------------------------------------------------


def test_compare_flags_regression_beyond_tolerance():
    baseline = _report(1000.0, _result("x", 100.0, normalized=0.1))
    current = _report(1000.0, _result("x", 70.0, normalized=0.07))
    comparison = compare_reports(current, baseline, tolerance=0.25)
    assert comparison.normalized is True
    (delta,) = comparison.deltas
    assert delta.status == "regression"
    assert delta.ratio == pytest.approx(0.7)
    assert not comparison.passed


def test_compare_within_tolerance_passes():
    baseline = _report(1000.0, _result("x", 100.0, normalized=0.1))
    current = _report(1000.0, _result("x", 80.0, normalized=0.08))
    comparison = compare_reports(current, baseline, tolerance=0.25)
    assert comparison.deltas[0].status == "ok"
    assert comparison.passed


def test_compare_normalization_absorbs_host_speed():
    # Baseline host is 2x faster in raw terms; normalized scores are
    # identical, so a half-speed host must still pass.
    baseline = _report(2000.0, _result("x", 200.0, normalized=0.1))
    current = _report(1000.0, _result("x", 100.0, normalized=0.1))
    comparison = compare_reports(current, baseline, tolerance=0.1)
    assert comparison.deltas[0].status == "ok"
    assert comparison.passed


def test_compare_improvement_new_and_missing_never_fail():
    baseline = _report(None, _result("fast", 100.0), _result("gone", 10.0))
    current = _report(None, _result("fast", 300.0), _result("fresh", 5.0))
    comparison = compare_reports(current, baseline, tolerance=0.25)
    assert comparison.normalized is False  # no calibration on either side
    statuses = {d.name: d.status for d in comparison.deltas}
    assert statuses == {"fast": "improvement", "gone": "missing",
                        "fresh": "new"}
    assert comparison.passed


def test_compare_rejects_bad_tolerance():
    report = _report(None)
    with pytest.raises(ReproError):
        compare_reports(report, report, tolerance=1.0)


def test_format_comparison_table_plain_and_markdown():
    baseline = _report(1000.0, _result("x", 100.0, normalized=0.1))
    current = _report(1000.0, _result("x", 50.0, normalized=0.05))
    comparison = compare_reports(current, baseline, tolerance=0.25)
    plain = format_comparison_table(comparison)
    assert "FAIL" in plain and "x" in plain
    markdown = format_comparison_table(comparison, markdown=True)
    assert markdown.startswith("### Perf gate: FAIL")
    assert "| x |" in markdown


# -- suite shape ------------------------------------------------------------

_BASELINE = os.path.join(os.path.dirname(__file__), "perf_baseline.json")


def test_benchmark_suite_names_are_unique_and_parameterized():
    from repro.perf.benchmarks import benchmark_suite

    suite = benchmark_suite(quick=False)
    names = [name for name, _, _ in suite]
    assert len(names) == len(set(names))
    assert "draw.tree.10000" in names  # the section 5.1 O(log n) draw
    for name, params, setup in suite:
        assert isinstance(params, dict)
        assert callable(setup)


def test_suite_names_equal_committed_baseline_names():
    """Every entry is gated and the baseline carries no dead entry."""
    from repro.perf.benchmarks import benchmark_suite

    baseline = load_report(_BASELINE)
    gated = [entry.name for entry in baseline.results
             if entry.name != CALIBRATION_NAME]
    assert gated == [name for name, _, _ in benchmark_suite()]
    assert baseline.result(CALIBRATION_NAME) is not None


def test_quick_suite_keeps_names_but_shrinks_loops():
    from repro.perf.benchmarks import benchmark_suite

    full = {name: params for name, params, _ in benchmark_suite(quick=False)}
    quick = {name: params for name, params, _ in benchmark_suite(quick=True)}
    assert set(quick) == set(full)  # same coverage, smaller loops
    assert quick["draw.list.1000"]["draws"] < full["draw.list.1000"]["draws"]
    assert quick["ipc.pingpong"]["calls"] < full["ipc.pingpong"]["calls"]


def test_dispatch_benchmark_is_deterministic():
    """Two setups of the kernel-driving benchmark run identical
    simulations."""
    from repro.perf.benchmarks import benchmark_suite

    suite = {name: setup for name, _, setup in benchmark_suite(quick=True)}
    setup = suite["ipc.pingpong"]
    fn_a, ops_a = setup()
    fn_b, ops_b = setup()
    assert ops_a == ops_b
    fn_a()
    fn_b()  # byte-identical virtual runs; must simply not diverge/crash


# -- CLI --------------------------------------------------------------------


def _run_cli(args):
    from repro.perf.__main__ import main

    return main(args)


def test_cli_quick_run_writes_report(tmp_path, capsys):
    out = tmp_path / "BENCH_perf.json"
    code = _run_cli(["--quick", "--reps", "1", "--filter", "draw.list",
                     "--output", str(out)])
    assert code == 0
    report = load_report(str(out))
    assert report.result(CALIBRATION_NAME) is not None


def test_cli_compare_gates_on_regression(tmp_path, capsys):
    out = tmp_path / "BENCH_perf.json"
    baseline_path = tmp_path / "baseline.json"
    code = _run_cli(["--quick", "--reps", "1", "--filter", "draw.list",
                     "--output", str(out),
                     "--write-baseline", str(baseline_path)])
    assert code == 0

    # Same machine, same suite: comparing against the just-written
    # baseline must pass at any sane tolerance.
    code = _run_cli(["--quick", "--reps", "1", "--filter", "draw.list",
                     "--output", str(out),
                     "--compare", str(baseline_path),
                     "--tolerance", "0.9"])
    assert code == 0

    # Forge an impossible baseline: the gate must fail.
    forged = load_report(str(baseline_path))
    for entry in forged.results:
        if entry.name != CALIBRATION_NAME:
            entry.normalized = (entry.normalized or 1.0) * 1e6
            entry.ops_per_sec *= 1e6
    write_report(str(baseline_path), forged)
    code = _run_cli(["--quick", "--reps", "1", "--filter", "draw.list",
                     "--output", str(out),
                     "--compare", str(baseline_path),
                     "--tolerance", "0.25"])
    assert code == 1
    assert "FAIL" in capsys.readouterr().out


def test_cli_list_prints_suite(capsys):
    code = _run_cli(["--list"])
    assert code == 0
    out = capsys.readouterr().out
    assert "draw.tree.10000" in out
