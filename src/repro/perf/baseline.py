"""Baselines and tolerance-band comparison for perf reports.

A committed baseline (``tests/perf/perf_baseline.json``) is
an ordinary ``BENCH_perf.json`` produced by ``--write-baseline``.
Comparison is **normalized-first**: when both reports carry a
calibration score, each benchmark's ``ops_per_sec /
calibration_ops_per_sec`` ratio is compared, so a baseline recorded on
one machine still gates a run on a faster or slower one.  Raw ops/sec
is the fallback when either side lacks calibration (hand-edited
baselines).

A benchmark *regresses* when its score falls below ``baseline * (1 -
tolerance)``; new benchmarks (absent from the baseline) and removed
ones are reported but never fail the gate -- adding coverage must not
require regenerating baselines atomically.
"""

from __future__ import annotations

import json
import os
import tempfile
from dataclasses import dataclass
from typing import Any, Dict, List, Optional

from repro.errors import ReproError
from repro.perf.harness import CALIBRATION_NAME, PerfReport

__all__ = [
    "BaselineComparison",
    "BenchmarkDelta",
    "compare_reports",
    "format_comparison_table",
    "load_report",
    "write_report",
]


def load_report(path: str) -> PerfReport:
    """Read a BENCH_perf.json / baseline file."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            data = json.load(handle)
    except OSError as exc:
        raise ReproError(f"cannot read perf report {path!r}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ReproError(
            f"perf report {path!r} is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ReproError(f"perf report {path!r} is not a JSON object")
    return PerfReport.from_dict(data)


def write_report(path: str, report: PerfReport) -> None:
    """Atomically write a report (same discipline as checkpoint files)."""
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp_path = tempfile.mkstemp(prefix=".perf-", dir=directory)
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            json.dump(report.to_dict(), handle, indent=2, sort_keys=True,
                      allow_nan=False)
            handle.write("\n")
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp_path, path)
    except BaseException:
        try:
            os.unlink(tmp_path)
        except OSError:
            pass
        raise


@dataclass
class BenchmarkDelta:
    """One benchmark's current-vs-baseline standing."""

    name: str
    #: "ok" | "regression" | "improvement" | "new" | "missing"
    status: str
    #: Score actually compared (normalized when available, else raw).
    current_score: Optional[float]
    baseline_score: Optional[float]
    #: current/baseline; >1 is faster than the baseline.
    ratio: Optional[float]
    current_ops_per_sec: Optional[float]
    baseline_ops_per_sec: Optional[float]


@dataclass
class BaselineComparison:
    """Every benchmark's delta plus the overall verdict."""

    tolerance: float
    normalized: bool
    deltas: List[BenchmarkDelta]

    @property
    def regressions(self) -> List[BenchmarkDelta]:
        return [d for d in self.deltas if d.status == "regression"]

    @property
    def passed(self) -> bool:
        return not self.regressions

    def to_dict(self) -> Dict[str, Any]:
        return {
            "tolerance": self.tolerance,
            "normalized": self.normalized,
            "passed": self.passed,
            "deltas": [vars(delta) for delta in self.deltas],
        }


def _score(report: PerfReport, name: str, normalized: bool) -> Optional[float]:
    entry = report.result(name)
    if entry is None:
        return None
    if normalized and entry.normalized is not None:
        return entry.normalized
    return entry.ops_per_sec


def compare_reports(current: PerfReport, baseline: PerfReport,
                    tolerance: float = 0.25) -> BaselineComparison:
    """Compare a fresh report against a baseline with a tolerance band."""
    if not 0.0 <= tolerance < 1.0:
        raise ReproError(f"tolerance must be in [0, 1): {tolerance}")
    normalized = (current.calibration_ops_per_sec is not None
                  and baseline.calibration_ops_per_sec is not None)
    names: List[str] = []
    for report in (baseline, current):
        for entry in report.results:
            if entry.name != CALIBRATION_NAME and entry.name not in names:
                names.append(entry.name)
    deltas: List[BenchmarkDelta] = []
    for name in names:
        current_score = _score(current, name, normalized)
        baseline_score = _score(baseline, name, normalized)
        current_entry = current.result(name)
        baseline_entry = baseline.result(name)
        if current_score is None:
            status = "missing"
            ratio = None
        elif baseline_score is None:
            status = "new"
            ratio = None
        else:
            ratio = (current_score / baseline_score
                     if baseline_score > 0 else None)
            if ratio is not None and ratio < 1.0 - tolerance:
                status = "regression"
            elif ratio is not None and ratio > 1.0 + tolerance:
                status = "improvement"
            else:
                status = "ok"
        deltas.append(BenchmarkDelta(
            name=name,
            status=status,
            current_score=current_score,
            baseline_score=baseline_score,
            ratio=ratio,
            current_ops_per_sec=(None if current_entry is None
                                 else current_entry.ops_per_sec),
            baseline_ops_per_sec=(None if baseline_entry is None
                                  else baseline_entry.ops_per_sec),
        ))
    return BaselineComparison(tolerance=tolerance, normalized=normalized,
                              deltas=deltas)


def _fmt_ops(value: Optional[float]) -> str:
    return "-" if value is None else f"{value:,.0f}"


def _fmt_ratio(value: Optional[float]) -> str:
    return "-" if value is None else f"{value:.2f}x"


def format_comparison_table(comparison: BaselineComparison,
                            markdown: bool = False) -> str:
    """Render the before/after table (plain text or GitHub markdown)."""
    header = ("benchmark", "baseline ops/s", "current ops/s", "ratio",
              "status")
    rows = [
        (delta.name,
         _fmt_ops(delta.baseline_ops_per_sec),
         _fmt_ops(delta.current_ops_per_sec),
         _fmt_ratio(delta.ratio),
         delta.status)
        for delta in comparison.deltas
    ]
    mode = "normalized by host calibration" if comparison.normalized \
        else "raw ops/sec"
    verdict = "PASS" if comparison.passed else \
        f"FAIL ({len(comparison.regressions)} regression(s))"
    if markdown:
        lines = [
            f"### Perf gate: {verdict}",
            f"Tolerance {comparison.tolerance:.0%}, scores {mode}.",
            "",
            "| " + " | ".join(header) + " |",
            "|" + "|".join("---" for _ in header) + "|",
        ]
        lines.extend("| " + " | ".join(row) + " |" for row in rows)
        return "\n".join(lines)
    widths = [max(len(header[col]), *(len(row[col]) for row in rows))
              if rows else len(header[col]) for col in range(len(header))]

    def line(cells) -> str:
        return "  ".join(cell.ljust(width)
                         for cell, width in zip(cells, widths)).rstrip()

    out = [f"perf gate: {verdict} (tolerance {comparison.tolerance:.0%}, "
           f"scores {mode})", line(header),
           line(tuple("-" * width for width in widths))]
    out.extend(line(row) for row in rows)
    return "\n".join(out)
