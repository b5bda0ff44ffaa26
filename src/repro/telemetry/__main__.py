"""Telemetry CLI: ``python -m repro.telemetry [report --bundle PATH]``.

Two entry styles share this module:

* The flat invocation (no subcommand) builds a checkpoint recipe,
  instruments it with a fresh :class:`~repro.telemetry.probe.Telemetry`
  hub, runs it to a virtual deadline, and exports the trace in any of
  the three formats.  Used by the CI telemetry-smoke job, which runs it
  twice with the same seed and asserts the Chrome exports are
  byte-identical.
* ``report --bundle PATH`` verifies and summarizes a crash
  flight-recorder bundle.  A sharded plan's observed run -- its report,
  stitched trace, metrics and SLO gate -- is ``python -m repro.shard
  run --obs``.

Exit status is non-zero when ``--validate`` finds schema problems in
the Chrome export or when a flight bundle fails its checksum.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional

from repro.checkpoint.recipes import RECIPES
from repro.checkpoint.registry import build_recipe
from repro.errors import ReproError
from repro.telemetry.exporters import (
    export_chrome,
    export_jsonl,
    export_prometheus,
    validate_chrome_trace,
    write_checksummed,
)
from repro.telemetry.probe import Telemetry


def _report_main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.telemetry report",
        description="Verify and summarize a crash flight-recorder "
                    "bundle (a plan's observed run is 'python -m "
                    "repro.shard run --obs').")
    parser.add_argument("--bundle", metavar="PATH", required=True,
                        help="the flight-recorder bundle to verify")
    args = parser.parse_args(argv)

    from repro.telemetry.flight import load_bundle, summarize_bundle

    try:
        summary = summarize_bundle(load_bundle(args.bundle))
    except ReproError as exc:
        print(f"INVALID bundle: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(summary, indent=2, sort_keys=True))
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    if argv and argv[0] == "report":
        return _report_main(argv[1:])
    from repro.shard.__main__ import positive_int, virtual_ms

    parser = argparse.ArgumentParser(
        prog="python -m repro.telemetry",
        description="Trace a recipe run and export spans/metrics.",
    )
    parser.add_argument("--recipe", default="lottery-mix",
                        choices=sorted(RECIPES),
                        help="recipe name (default: %(default)s)")
    parser.add_argument("--seed", type=int, default=2718,
                        help="recipe seed (default: %(default)s)")
    parser.add_argument("--run-until", type=virtual_ms, default=60_000.0,
                        metavar="MS",
                        help="virtual deadline in ms (default: %(default)s)")
    parser.add_argument("--max-spans", type=positive_int, default=1_000_000,
                        help="span buffer bound (default: %(default)s)")
    parser.add_argument("--chrome", metavar="PATH",
                        help="write Chrome trace-event JSON (Perfetto)")
    parser.add_argument("--jsonl", metavar="PATH",
                        help="write the JSONL event stream")
    parser.add_argument("--prom", metavar="PATH",
                        help="write the Prometheus text dump")
    parser.add_argument("--validate", action="store_true",
                        help="schema-check the Chrome export; non-zero "
                             "exit on problems")
    args = parser.parse_args(argv)

    try:
        handle = build_recipe(args.recipe, {"seed": args.seed})
        telemetry = Telemetry(max_spans=args.max_spans)
        telemetry.instrument_handle(handle)
        handle.advance(args.run_until)
        telemetry.finalize(handle.now)
    except ReproError as exc:
        parser.error(str(exc))

    tracer, registry = telemetry.tracer, telemetry.registry
    print(f"recipe={args.recipe} seed={args.seed} t={handle.now:g}ms")
    print(f"spans={len(tracer)} dropped={tracer.dropped_spans} "
          f"metrics={len(registry)}")
    for (category, name), count in sorted(tracer.counts().items()):
        print(f"  {category:<11s} {name:<22s} {count}")

    status = 0
    chrome_text = None
    if args.chrome or args.validate:
        chrome_text = export_chrome(tracer)
    if args.validate:
        assert chrome_text is not None
        problems = validate_chrome_trace(chrome_text)
        if problems:
            for problem in problems:
                print(f"INVALID: {problem}", file=sys.stderr)
            status = 1
        else:
            print("chrome trace: schema OK")
    if args.chrome:
        assert chrome_text is not None
        digest = write_checksummed(args.chrome, chrome_text)
        print(f"chrome {args.chrome} sha256={digest}")
    if args.jsonl:
        digest = write_checksummed(args.jsonl, export_jsonl(tracer, registry))
        print(f"jsonl {args.jsonl} sha256={digest}")
    if args.prom:
        digest = write_checksummed(args.prom, export_prometheus(registry))
        print(f"prom {args.prom} sha256={digest}")
    return status


if __name__ == "__main__":  # pragma: no cover - CLI entry
    sys.exit(main())
