"""Deterministic microbenchmark harness (``python -m repro.perf``).

The paper separates two kinds of cost (section 5.6): whole-application
overhead, and the micro cost of a draw, a currency conversion and a
ticket transfer.  This package times the second kind and gates it
against a committed baseline; the first kind -- host time per
dispatched quantum and per served request, layer by layer -- is
``python3 bench/run.py`` (``bench/``, bounds in ``BENCHMARK.json``),
and nothing is timed by both:

* :mod:`repro.perf.benchmarks` -- six seeded microbenchmarks (list and
  tree lottery draws, currency revaluation, IPC ping-pong with its
  ticket transfers, checkpoint capture, trace export);
* :mod:`repro.perf.harness` -- the timing machinery: per-repetition
  wall-clock samples, ops/sec, p50/p95, an environment fingerprint,
  and a host-speed **calibration loop** so scores can be compared
  across machines as ratios rather than raw numbers;
* :mod:`repro.perf.baseline` -- schema-versioned ``BENCH_perf.json``
  reports, committed baselines, and tolerance-band comparison (the CI
  ``perf`` job fails when a benchmark regresses beyond the band).

The *workloads* timed here are deterministic (seeded Park-Miller
streams, virtual time); only the wall-clock duration of executing them
varies by host.  Timing itself therefore lives outside the
deterministic zones and never feeds back into simulation state.
"""

from repro._exports import lazy_exports

__all__ = [
    "BenchmarkResult",
    "PerfReport",
    "BaselineComparison",
    "environment_fingerprint",
    "run_benchmarks",
    "compare_reports",
    "format_comparison_table",
    "load_report",
    "write_report",
]

__getattr__ = lazy_exports(globals(), {
    "BaselineComparison": ".baseline", "compare_reports": ".baseline",
    "format_comparison_table": ".baseline", "load_report": ".baseline",
    "write_report": ".baseline",
    "BenchmarkResult": ".harness", "PerfReport": ".harness",
    "environment_fingerprint": ".harness", "run_benchmarks": ".harness",
})
