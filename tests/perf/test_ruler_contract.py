"""What ``bench/`` (the frozen ruler, see BENCHMARK.json) needs of ``src/``.

``bench/trace.py`` wraps ~30 classes by name and ``bench/run.py`` calls
one function of :mod:`repro.perf.harness` on every invocation.  A
refactor that renames either breaks the ruler, and only CI's
``python -m pytest bench`` step noticed; these two checks make tier-1
notice.  They read ``bench/`` and edit nothing there.
"""

from __future__ import annotations

from bench import trace as bench_trace
from repro.perf import harness


def test_every_traced_name_resolves_to_a_plain_function():
    tracer = bench_trace.Tracer()
    try:
        # Raises on a name that is missing or not a plain function.
        tracer.install(bench_trace.default_targets())
        patched = list(tracer.installed)
    finally:
        tracer.uninstall()
    assert patched
    assert all(vars(owner)[attr] is original
               for owner, attr, original in patched)


def test_host_fingerprint_calibration_call():
    """``bench.run.host_fingerprint`` calls exactly this, with reps=3."""
    assert harness.CALIBRATION_NAME == "calibration.spin"
    # Fixed forever: bench/ normalises every committed number by it.
    assert harness._CALIBRATION_ITERATIONS == 200_000
    report = harness.run_benchmarks([], reps=1)
    assert report.calibration_ops_per_sec > 0
    assert [entry.name for entry in report.results] \
        == [harness.CALIBRATION_NAME]
