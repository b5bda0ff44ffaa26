"""Telemetry CLI: ``python -m repro.telemetry [report]``.

Two entry styles share this module:

* The legacy flat invocation (no subcommand) builds a checkpoint
  recipe, instruments it with a fresh
  :class:`~repro.telemetry.probe.Telemetry` hub, runs it to a virtual
  deadline, and exports the trace in any of the three formats.  Used
  by the CI telemetry-smoke job, which runs it twice with the same
  seed and asserts the Chrome exports are byte-identical.
* ``report`` drives a sharded run with the observability plane on and
  renders the aggregated run report (markdown to stdout; ``--json``/
  ``--md``/``--trace``/``--prom`` write checksummed artifacts).  With
  ``--bundle PATH`` it instead verifies and summarizes a crash
  flight-recorder bundle.

Exit status is non-zero when ``--validate`` finds schema problems in
the Chrome export, when a ``report`` run breaches its SLO policy, or
when a flight bundle fails its checksum.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional

from repro.checkpoint.registry import build_recipe, recipe_names
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
    # The one table of built-in plans, shared with ``repro.shard run``.
    from repro.shard.__main__ import PLANS, positive_int

    parser = argparse.ArgumentParser(
        prog="python -m repro.telemetry report",
        description="Aggregate a sharded run's observability plane "
                    "into a run report (or summarize a flight bundle).")
    parser.add_argument("--bundle", metavar="PATH",
                        help="verify + summarize a flight-recorder "
                             "bundle instead of running a plan")
    parser.add_argument("--plan", choices=sorted(PLANS), default="mix")
    parser.add_argument("--cores", type=positive_int, default=4)
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--until", type=float, default=5000.0)
    parser.add_argument("--backend", default="inline",
                        help="single/inline/mp (default: %(default)s)")
    parser.add_argument("--shards", type=positive_int, default=2)
    parser.add_argument("--supervise", action="store_true",
                        help="supervised mp run (requires --backend mp)")
    parser.add_argument("--host-faults", metavar="PLAN",
                        help="host-fault preset/JSON file (requires "
                             "--supervise)")
    parser.add_argument("--json", metavar="PATH",
                        help="write the report document as JSON")
    parser.add_argument("--md", metavar="PATH",
                        help="write the markdown report")
    parser.add_argument("--trace", metavar="PATH",
                        help="write the stitched Chrome trace")
    parser.add_argument("--prom", metavar="PATH",
                        help="write aggregated metrics as Prometheus "
                             "text")
    parser.add_argument("--quiet", action="store_true",
                        help="suppress the markdown dump on stdout")
    args = parser.parse_args(argv)

    if args.bundle:
        from repro.telemetry.flight import load_bundle, summarize_bundle

        try:
            summary = summarize_bundle(load_bundle(args.bundle))
        except ReproError as exc:
            print(f"INVALID bundle: {exc}", file=sys.stderr)
            return 1
        print(json.dumps(summary, indent=2, sort_keys=True))
        return 0

    from repro.shard.engine import ShardedEngine
    from repro.shard.hostfaults import load_host_faults
    from repro.telemetry.obsreport import render_markdown

    if args.host_faults and not args.supervise:
        parser.error("--host-faults requires --supervise")
    try:
        plan = PLANS[args.plan](args)
        host_faults = (load_host_faults(args.host_faults, args.shards)
                       if args.host_faults else None)
        with ShardedEngine(plan, shards=args.shards, backend=args.backend,
                           supervise=args.supervise, host_faults=host_faults,
                           obs=True) as engine:
            engine.advance(args.until)
            report = engine.obs_report()
            trace = engine.stitched_trace()
            view = engine.metrics_view()
    except ReproError as exc:
        parser.error(str(exc))
    markdown = render_markdown(report)
    if not args.quiet:
        print(markdown, end="")
    slo = report["canonical"]["slo"]
    print(f"canonical sha256: {report['canonical_sha256']}",
          file=sys.stderr)
    if args.json:
        digest = write_checksummed(
            args.json, json.dumps(report, sort_keys=True,
                                  separators=(",", ":")) + "\n")
        print(f"json {args.json} sha256={digest}", file=sys.stderr)
    if args.md:
        digest = write_checksummed(args.md, markdown)
        print(f"md {args.md} sha256={digest}", file=sys.stderr)
    if args.trace:
        digest = write_checksummed(args.trace, trace)
        print(f"trace {args.trace} sha256={digest}", file=sys.stderr)
    if args.prom:
        digest = write_checksummed(args.prom, export_prometheus(view))
        print(f"prom {args.prom} sha256={digest}", file=sys.stderr)
    return 0 if slo["ok"] else 2


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
                        choices=recipe_names(),
                        help="registered recipe name (default: %(default)s)")
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
    parser.add_argument("--list-recipes", action="store_true",
                        help="list registered recipes and exit")
    args = parser.parse_args(argv)

    if args.list_recipes:
        for name in recipe_names():
            print(name)
        return 0

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
