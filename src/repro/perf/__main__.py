"""Microbenchmark CLI: ``python -m repro.perf``.

Runs the benchmark suite, writes a schema-versioned ``BENCH_perf.json``,
and (optionally) gates against a committed baseline:

* ``python -m repro.perf`` -- run everything, write BENCH_perf.json;
* ``python -m repro.perf --compare tests/perf/perf_baseline.json
  --tolerance 0.25`` -- the CI perf gate: non-zero exit when any
  benchmark regresses beyond the tolerance band;
* ``python -m repro.perf --write-baseline tests/perf/perf_baseline.json``
  -- record a fresh baseline (see ``docs/PERFORMANCE.md`` for when that
  is legitimate);
* ``--github-summary`` appends the before/after table as markdown to
  ``$GITHUB_STEP_SUMMARY`` when that variable is set.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import List, Optional

from repro.perf.baseline import (
    compare_reports,
    format_comparison_table,
    load_report,
    write_report,
)
from repro.perf.benchmarks import benchmark_suite
from repro.perf.harness import run_benchmarks


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.perf",
        description="Time the simulator's hot loops; gate against a "
                    "committed baseline.",
    )
    parser.add_argument("--output", metavar="PATH", default="BENCH_perf.json",
                        help="report path (default: %(default)s)")
    parser.add_argument("--compare", metavar="BASELINE",
                        help="compare against a baseline report; exit 1 on "
                             "regression beyond the tolerance band")
    parser.add_argument("--tolerance", type=float, default=0.25,
                        help="allowed fractional slowdown before a "
                             "regression fails the gate "
                             "(default: %(default)s)")
    parser.add_argument("--write-baseline", metavar="PATH",
                        help="also write this run as a new baseline")
    parser.add_argument("--reps", type=int, default=5,
                        help="repetitions per benchmark (default: "
                             "%(default)s; best-of is scored)")
    parser.add_argument("--filter", metavar="SUBSTRING",
                        help="only run benchmarks whose name contains this")
    parser.add_argument("--quick", action="store_true",
                        help="shrink inner loops (smoke runs, tests)")
    parser.add_argument("--github-summary", action="store_true",
                        help="append the markdown table to "
                             "$GITHUB_STEP_SUMMARY if set")
    parser.add_argument("--list", action="store_true", dest="list_only",
                        help="list benchmark names and exit")
    args = parser.parse_args(argv)

    suite = benchmark_suite(quick=args.quick)
    if args.list_only:
        for name, params, _ in suite:
            print(f"{name}  {params}")
        return 0

    report = run_benchmarks(suite, reps=args.reps, name_filter=args.filter,
                            progress=print)
    write_report(args.output, report)
    print(f"report written to {args.output}")

    if args.write_baseline:
        write_report(args.write_baseline, report)
        print(f"baseline written to {args.write_baseline}")

    status = 0
    if args.compare:
        baseline = load_report(args.compare)
        comparison = compare_reports(report, baseline,
                                     tolerance=args.tolerance)
        print(format_comparison_table(comparison))
        if not comparison.passed:
            status = 1
        summary_path = os.environ.get("GITHUB_STEP_SUMMARY")
        if args.github_summary and summary_path:
            with open(summary_path, "a", encoding="utf-8") as handle:
                handle.write(format_comparison_table(comparison,
                                                     markdown=True))
                handle.write("\n")
    return status


if __name__ == "__main__":  # pragma: no cover - CLI entry
    sys.exit(main())
