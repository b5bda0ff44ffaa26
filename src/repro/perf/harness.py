"""Timing machinery for the microbenchmark harness.

A benchmark is a named callable factory: ``setup()`` builds a fresh,
fully deterministic workload and returns ``(fn, ops)``, where calling
``fn()`` performs ``ops`` hot-loop operations.  The harness times
``fn`` over several repetitions (a fresh setup per repetition, so no
repetition warms the next one's state), and summarizes the samples as
ops/sec plus p50/p95 per-repetition latency.

Wall-clock readings happen *around* the workload, never inside it: the
workloads advance virtual time only, so two hosts run byte-identical
simulations and differ only in how fast they get through them.  The
``calibration.spin`` pseudo-benchmark measures raw host speed with a
fixed arithmetic loop; every score is also reported *normalized* by
the calibration throughput, which is what baseline comparison uses --
a committed baseline from one machine then gates another machine on
relative, not absolute, speed.
"""

from __future__ import annotations

import platform
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.errors import ReproError

__all__ = [
    "BenchmarkResult",
    "PerfReport",
    "environment_fingerprint",
    "percentile",
    "run_benchmarks",
    "CALIBRATION_NAME",
]

#: Bump on any incompatible change to the BENCH_perf.json shape.
SCHEMA_VERSION = 1

FORMAT_NAME = "repro-perf"

#: The host-speed pseudo-benchmark every report must carry.
CALIBRATION_NAME = "calibration.spin"

#: Iterations of the calibration spin loop (fixed forever: changing it
#: silently rescales every normalized score in every baseline).
_CALIBRATION_ITERATIONS = 200_000


def environment_fingerprint() -> Dict[str, Any]:
    """Host/interpreter description embedded in every report."""
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "system": platform.system(),
        "machine": platform.machine(),
        "argv_safe": "repro.perf",
    }


def percentile(samples: Sequence[float], fraction: float) -> float:
    """Nearest-rank percentile of a non-empty sample list."""
    if not samples:
        raise ReproError("percentile of an empty sample list")
    if not 0.0 <= fraction <= 1.0:
        raise ReproError(f"percentile fraction must be in [0, 1]: {fraction}")
    ordered = sorted(samples)
    rank = min(len(ordered) - 1, max(0, int(round(fraction * (len(ordered) - 1)))))
    return ordered[rank]


@dataclass
class BenchmarkResult:
    """One benchmark's timing summary."""

    name: str
    params: Dict[str, Any]
    reps: int
    ops: int
    ops_per_sec: float
    #: ops/sec divided by the calibration loop's ops/sec: a host-speed-
    #: independent score (comparable across machines).
    normalized: Optional[float]
    p50_ms: float
    p95_ms: float
    samples_ms: List[float] = field(default_factory=list)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "params": dict(self.params),
            "reps": self.reps,
            "ops": self.ops,
            "ops_per_sec": self.ops_per_sec,
            "normalized": self.normalized,
            "p50_ms": self.p50_ms,
            "p95_ms": self.p95_ms,
            "samples_ms": list(self.samples_ms),
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "BenchmarkResult":
        return cls(
            name=str(data["name"]),
            params=dict(data.get("params", {})),
            reps=int(data["reps"]),
            ops=int(data["ops"]),
            ops_per_sec=float(data["ops_per_sec"]),
            normalized=(None if data.get("normalized") is None
                        else float(data["normalized"])),
            p50_ms=float(data["p50_ms"]),
            p95_ms=float(data["p95_ms"]),
            samples_ms=[float(s) for s in data.get("samples_ms", [])],
        )


@dataclass
class PerfReport:
    """A full harness run: fingerprint + per-benchmark results."""

    fingerprint: Dict[str, Any]
    calibration_ops_per_sec: Optional[float]
    results: List[BenchmarkResult]

    def result(self, name: str) -> Optional[BenchmarkResult]:
        for entry in self.results:
            if entry.name == name:
                return entry
        return None

    def to_dict(self) -> Dict[str, Any]:
        return {
            "format": FORMAT_NAME,
            "schema_version": SCHEMA_VERSION,
            "fingerprint": dict(self.fingerprint),
            "calibration_ops_per_sec": self.calibration_ops_per_sec,
            "benchmarks": [entry.to_dict() for entry in self.results],
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "PerfReport":
        if data.get("format") != FORMAT_NAME:
            raise ReproError(
                f"not a {FORMAT_NAME} report (format={data.get('format')!r})")
        if data.get("schema_version") != SCHEMA_VERSION:
            raise ReproError(
                f"perf report schema {data.get('schema_version')!r} is not "
                f"readable by this build (wants {SCHEMA_VERSION})")
        calibration = data.get("calibration_ops_per_sec")
        return cls(
            fingerprint=dict(data.get("fingerprint", {})),
            calibration_ops_per_sec=(None if calibration is None
                                     else float(calibration)),
            results=[BenchmarkResult.from_dict(entry)
                     for entry in data.get("benchmarks", [])],
        )


def _calibration_spin() -> Tuple[Callable[[], None], int]:
    """Fixed arithmetic loop measuring raw host speed."""

    def spin() -> None:
        acc = 1
        for index in range(_CALIBRATION_ITERATIONS):
            acc = (acc * 16807 + index) % 2147483647

    return spin, _CALIBRATION_ITERATIONS


def _time_once(fn: Callable[[], None]) -> float:
    """Wall-clock one invocation of ``fn``, in milliseconds."""
    start = time.perf_counter()
    fn()
    return (time.perf_counter() - start) * 1000.0


def _run_one(name: str, params: Dict[str, Any],
             setup: Callable[[], Tuple[Callable[[], None], int]],
             reps: int, calibration: Optional[float]) -> BenchmarkResult:
    samples: List[float] = []
    ops = 0
    for _ in range(reps):
        fn, ops = setup()
        samples.append(_time_once(fn))
    best_ms = min(samples)
    ops_per_sec = ops / (best_ms / 1000.0) if best_ms > 0 else float(ops)
    normalized = (None if calibration is None or calibration <= 0
                  else ops_per_sec / calibration)
    return BenchmarkResult(
        name=name,
        params=params,
        reps=reps,
        ops=ops,
        ops_per_sec=ops_per_sec,
        normalized=normalized,
        p50_ms=percentile(samples, 0.50),
        p95_ms=percentile(samples, 0.95),
        samples_ms=samples,
    )


def run_benchmarks(
    benchmarks: Sequence[Tuple[str, Dict[str, Any],
                               Callable[[], Tuple[Callable[[], None], int]]]],
    reps: int = 5,
    name_filter: Optional[str] = None,
    progress: Optional[Callable[[str], None]] = None,
) -> PerfReport:
    """Time every benchmark and return the full report.

    ``benchmarks`` is a sequence of ``(name, params, setup)`` entries
    (see :func:`repro.perf.benchmarks.benchmark_suite`).  ``name_filter``
    keeps only benchmarks whose name contains the substring; the
    calibration loop always runs so normalized scores stay defined.
    ``progress`` is an optional per-benchmark callback (the CLI's
    status line) -- the library itself never writes to stdout.
    """
    if reps <= 0:
        raise ReproError(f"reps must be positive: {reps}")
    calibration_result = _run_one(
        CALIBRATION_NAME, {"iterations": _CALIBRATION_ITERATIONS},
        _calibration_spin, reps, None)
    calibration = calibration_result.ops_per_sec
    if progress is not None:
        progress(f"{CALIBRATION_NAME}: "
                 f"{calibration:,.0f} ops/s (host speed reference)")
    results: List[BenchmarkResult] = [calibration_result]
    for name, params, setup in benchmarks:
        if name == CALIBRATION_NAME:
            continue
        if name_filter is not None and name_filter not in name:
            continue
        entry = _run_one(name, params, setup, reps, calibration)
        results.append(entry)
        if progress is not None:
            progress(f"{name}: {entry.ops_per_sec:,.0f} ops/s "
                     f"(p50 {entry.p50_ms:.1f}ms, p95 {entry.p95_ms:.1f}ms)")
    return PerfReport(
        fingerprint=environment_fingerprint(),
        calibration_ops_per_sec=calibration,
        results=results,
    )
