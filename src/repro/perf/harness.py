"""The host-speed calibration loop ``bench/run.py`` records.

``bench.run.host_fingerprint`` calls ``run_benchmarks([], reps=3)`` and
keeps ``calibration_ops_per_sec``: the best-of-``reps`` throughput of a
fixed arithmetic loop, so numbers measured on two hosts can be compared
as ratios.  The loop reads no simulation state and feeds none back.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import List, Sequence

__all__ = ["BenchmarkResult", "PerfReport", "run_benchmarks",
           "CALIBRATION_NAME"]

#: The host-speed pseudo-benchmark every report carries.
CALIBRATION_NAME = "calibration.spin"

#: Iterations of the calibration spin loop (fixed forever: changing it
#: silently rescales every number normalised by it).
_CALIBRATION_ITERATIONS = 200_000


@dataclass
class BenchmarkResult:
    name: str
    ops_per_sec: float


@dataclass
class PerfReport:
    calibration_ops_per_sec: float
    results: List[BenchmarkResult]


def _spin() -> float:
    """Seconds one pass of the fixed arithmetic loop takes."""
    start = time.perf_counter()
    acc = 1
    for index in range(_CALIBRATION_ITERATIONS):
        acc = (acc * 16807 + index) % 2147483647
    return time.perf_counter() - start


def run_benchmarks(benchmarks: Sequence[object], reps: int) -> PerfReport:
    """Time the calibration loop ``reps`` times; score the fastest.

    ``benchmarks`` is empty at every caller (``bench/run.py`` passes
    ``[]``): the calibration loop is the one thing timed here.
    """
    best = min(_spin() for _ in range(reps))
    ops_per_sec = (_CALIBRATION_ITERATIONS / best if best > 0
                   else float(_CALIBRATION_ITERATIONS))
    return PerfReport(calibration_ops_per_sec=ops_per_sec,
                      results=[BenchmarkResult(CALIBRATION_NAME, ops_per_sec)])
