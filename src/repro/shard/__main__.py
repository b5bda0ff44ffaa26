"""Sharded-engine CLI: ``python -m repro.shard``.

* ``run`` -- the one runner of a named plan
  (:data:`repro.shard.plan.PLANS`): execute it on one backend and print
  the stream/state checksums, plus the recovery line of an mp run;
  ``--host-faults`` injects a deliberate host-fault plan (preset name
  or JSON file) into the mp workers.  ``--obs`` turns
  on the cross-shard observability plane; ``--trace-out`` writes the
  stitched Chrome trace, ``--report-out``/``--report-md`` the
  observability report (JSON / markdown), ``--prom-out`` the
  aggregated metrics in Prometheus text format, and ``--flight-dir``
  arms the crash flight recorder.  All observability outputs are
  byte-deterministic: same plan/seed on any backend produces
  sha256-identical canonical artifacts.  An observed run that breaches
  its SLO policy exits 2 (the SLO gate);
* ``verify`` -- the CI equivalence gate: run the single-loop oracle,
  then every requested ``(backend, shards)`` combination, and compare
  replay-stream and state-tree sha256s bit-for-bit.  With
  ``--host-faults`` one extra combination joins the matrix: an mp run
  with that plan injected (``kill-every-epoch``: a worker killed at
  **every epoch barrier**), which must still be bit-identical to the
  oracle.  On divergence, writes a report (first differing entry,
  per-combination checksums) suitable for upload as a CI artifact and
  exits 1.

A bad argument -- including one only the plan, the engine or the
supervision policy can judge, such as a horizon off the epoch grid --
is one usage line and exit 2.

Examples::

    python -m repro.shard run --plan mix --cores 4 --backend mp \
        --shards 4 --until 5000 --host-faults chaos
    python -m repro.shard verify --plan mix --cores 4 --until 5000 \
        --backends inline,mp --shards 1,2,4 \
        --host-faults kill-every-epoch --report divergence.txt
    python -m repro.shard run --plan chaos --cores 3 --seed 2718 \
        --until 60000 --obs --trace-out chaos.trace.json
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Tuple

from repro.checkpoint.statetree import canonical_json, tree_checksum
from repro.errors import ReproError, ShardError
from repro.shard.hostfaults import HostFaultPlan, load_host_faults
from repro.shard.plan import PLANS, ShardPlan

if TYPE_CHECKING:  # pragma: no cover
    from repro.shard.backends import SupervisorPolicy

# The engine and its backends are imported where a plan runs: the
# other CLIs import the argument types from here.


def positive_int(text: str) -> int:
    """argparse type of a count (cores, shards, quanta, a span bound)."""
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(
            f"expected a positive integer: {text!r}")
    return value


def virtual_ms(text: str) -> float:
    """argparse type of a virtual time: finite and non-negative."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value) or value < 0.0:
        raise argparse.ArgumentTypeError(
            f"expected a finite, non-negative time in ms: {text!r}")
    return value


def _shard_counts(text: str) -> List[int]:
    """argparse type of ``--shards``: a comma list of positive ints."""
    return [positive_int(part) for part in text.split(",")]


def _backend_names(text: str) -> List[str]:
    """argparse type of ``--backends``: a comma list of known backend
    names, so a typo is a usage error, not a diverged combination."""
    from repro.shard.backends import BACKENDS

    names = [part.strip() for part in text.split(",")]
    for name in names:
        if name not in BACKENDS:
            raise argparse.ArgumentTypeError(
                f"unknown backend {name!r} in {text!r} "
                f"(choose from {', '.join(sorted(BACKENDS))})")
    return names


def _run_combo(plan: ShardPlan, backend: str, shards: int, until: float,
               policy: Optional[SupervisorPolicy] = None,
               host_faults: Optional[HostFaultPlan] = None,
               obs: bool = False, flight_dir: Optional[str] = None,
               ) -> Tuple[str, str, List[Dict[str, Any]], dict,
                          Optional[Dict[str, Any]]]:
    from repro.shard.engine import ShardedEngine

    with ShardedEngine(plan, shards=shards, backend=backend,
                       policy=policy if backend == "mp" else None,
                       host_faults=host_faults, obs=obs,
                       flight_dir=flight_dir) as engine:
        engine.advance(until)
        stream = engine.merged_stream()
        obs_out: Optional[Dict[str, Any]] = None
        if obs:
            obs_out = {
                "trace": engine.stitched_trace(),
                "report": engine.obs_report(),
                "view": engine.metrics_view(),
            }
        return (tree_checksum(stream), tree_checksum(engine.snapshot_state()),
                stream, engine.recovery_summary(), obs_out)


def _write_obs_outputs(args: argparse.Namespace,
                       obs_out: Dict[str, Any]) -> bool:
    """Print the obs digests, write the requested artifacts; whether
    the run met its SLO policy."""
    from repro.telemetry.exporters import export_prometheus, write_checksummed
    from repro.telemetry.obsreport import render_markdown

    trace = obs_out["trace"]
    report = obs_out["report"]
    slo = report["canonical"]["slo"]
    print(f"obs     slices={report['canonical']['slices']} "
          f"slo={'PASS' if slo['ok'] else 'FAIL'} "
          f"breaches={len(slo['breaches'])}")
    print(f"trace   {json.loads(trace)['metadata']['sha256']}")
    print(f"reportc {report['canonical_sha256']}")
    if args.trace_out:
        write_checksummed(args.trace_out, trace)
        print(f"stitched trace written to {args.trace_out}")
    if args.report_out:
        write_checksummed(args.report_out, canonical_json(report) + "\n")
        print(f"obs report written to {args.report_out}")
    if args.report_md:
        write_checksummed(args.report_md, render_markdown(report))
        print(f"obs report (markdown) written to {args.report_md}")
    if args.prom_out:
        write_checksummed(args.prom_out,
                          export_prometheus(obs_out["view"]))
        print(f"prometheus metrics written to {args.prom_out}")
    return slo["ok"]


def _first_divergence(reference: List[Dict[str, Any]],
                      stream: List[Dict[str, Any]]) -> str:
    for index, (left, right) in enumerate(zip(reference, stream)):
        if left != right:
            return (f"first divergent entry at index {index}:\n"
                    f"  single: {left!r}\n  other:  {right!r}")
    if len(reference) != len(stream):
        return (f"streams diverge in length: single={len(reference)} "
                f"other={len(stream)}")
    return "streams identical (state trees diverge)"


def _recovery_line(summary: dict) -> str:
    return (f"recovery: restarts={sum(summary['restarts'])} "
            f"retries={sum(summary['retries'])} "
            f"faults_armed={summary['faults_armed']} "
            f"degraded={summary['degraded']}")


def _policy_from_args(args: argparse.Namespace) -> SupervisorPolicy:
    from repro.shard.backends import SupervisorPolicy

    return SupervisorPolicy(max_retries=args.max_retries,
                            deadline_s=args.deadline)


def main(argv: Optional[List[str]] = None) -> int:
    from repro.shard.backends import BACKENDS

    parser = argparse.ArgumentParser(
        prog="python -m repro.shard",
        description="Run or verify the deterministic sharded engine.")
    parser.add_argument("command", choices=("run", "verify"))
    parser.add_argument("--plan", choices=sorted(PLANS), default="mix")
    parser.add_argument("--cores", type=positive_int, default=4)
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--until", type=float, default=5000.0)
    parser.add_argument("--backend", default="inline",
                        choices=sorted(BACKENDS),
                        help="backend for 'run'")
    parser.add_argument("--backends", type=_backend_names,
                        default="inline,mp",
                        help="comma list for 'verify'")
    parser.add_argument("--shards", type=_shard_counts, default="1,2,4",
                        help="shard counts: one int for 'run', comma "
                             "list for 'verify'")
    parser.add_argument("--max-retries", type=int, default=3,
                        help="mp worker recoveries per exchange")
    parser.add_argument("--deadline", type=float, default=30.0,
                        help="host seconds an mp worker has to answer "
                             "one exchange (a whole quiet window)")
    parser.add_argument("--host-faults", metavar="PLAN",
                        help="host-fault plan to inject into the mp "
                             "workers: preset name ('kill-every-epoch', "
                             "'chaos') or JSON file path (run: requires "
                             "--backend mp; verify: adds the faulted mp "
                             "combination)")
    parser.add_argument("--report", metavar="PATH",
                        help="divergence report path for 'verify'")
    parser.add_argument("--obs", action="store_true",
                        help="run with the cross-shard observability "
                             "plane: barrier-mediated metric frames, "
                             "stitched trace, SLO watchdogs")
    parser.add_argument("--trace-out", metavar="PATH",
                        help="write the stitched Chrome trace here "
                             "(implies --obs)")
    parser.add_argument("--report-out", metavar="PATH",
                        help="write the observability report JSON here "
                             "(implies --obs)")
    parser.add_argument("--report-md", metavar="PATH",
                        help="write the observability report as "
                             "markdown here (implies --obs)")
    parser.add_argument("--prom-out", metavar="PATH",
                        help="write the aggregated metrics in "
                             "Prometheus text format here (implies "
                             "--obs)")
    parser.add_argument("--flight-dir", metavar="DIR",
                        help="flight-recorder bundle directory: on a "
                             "shard fault / sanitizer trap the engine "
                             "dumps a checksummed debug bundle here "
                             "(implies --obs)")
    args = parser.parse_args(argv)

    obs = bool(args.obs or args.trace_out or args.report_out
               or args.report_md or args.prom_out or args.flight_dir)
    if obs and args.command != "run":
        parser.error("--obs and its output flags apply to 'run' only")
    # 'run' runs one combination; 'verify' runs the single-loop oracle
    # here and every combination after it.
    shards = args.shards[0] if args.command == "run" else max(args.shards)
    try:
        plan = PLANS[args.plan](args.seed, args.cores)
        policy = _policy_from_args(args)
        host_faults = (load_host_faults(args.host_faults, shards)
                       if args.host_faults else None)
        if args.command == "run":
            stream_sha, state_sha, stream, recovery, obs_out = _run_combo(
                plan, args.backend, shards, args.until, policy=policy,
                host_faults=host_faults, obs=obs,
                flight_dir=args.flight_dir)
        else:
            ref_stream_sha, ref_state_sha, ref_stream, _, _ = _run_combo(
                plan, "single", 1, args.until)
    except ReproError as exc:
        parser.error(str(exc))

    if args.command == "run":
        print(f"plan={args.plan} cores={args.cores} backend={args.backend}"
              f" shards={shards} until={args.until:g}")
        print(f"entries {len(stream)}")
        print(f"stream  {stream_sha}")
        print(f"state   {state_sha}")
        if args.backend == "mp":
            print(_recovery_line(recovery))
        if obs and not _write_obs_outputs(args, obs_out):
            return 2  # the SLO gate: the run breached its policy
        return 0

    print(f"single-loop oracle: stream {ref_stream_sha[:16]} "
          f"state {ref_state_sha[:16]} ({len(ref_stream)} entries)")
    failures: List[str] = []
    lines: List[str] = [
        f"shard equivalence report: plan={args.plan} cores={args.cores} "
        f"seed={args.seed} until={args.until:g}",
        f"single-loop oracle: stream={ref_stream_sha} "
        f"state={ref_state_sha}",
    ]

    combos: List[Dict[str, Any]] = []
    for backend in args.backends:
        for count in args.shards:
            combos.append({"label": f"{backend}/s{count}",
                           "backend": backend, "shards": count})
    if host_faults is not None:
        combos.append({"label": f"mp+faults/s{shards}", "backend": "mp",
                       "shards": shards, "host_faults": host_faults})

    for combo in combos:
        label = combo["label"]
        try:  # repro: noqa[RPR006] -- not a retry: each combination runs exactly once; a failing combo is recorded in the divergence report and fails the exit code
            stream_sha, state_sha, stream, recovery, _ = _run_combo(
                plan, combo["backend"], combo["shards"], args.until,
                policy=policy, host_faults=combo.get("host_faults"))
        except ShardError as exc:
            failures.append(f"{label}: {exc}")
            lines.append(f"{label}: ERROR {exc}")
            continue
        ok = (stream_sha == ref_stream_sha
              and state_sha == ref_state_sha)
        verdict = "OK" if ok else "DIVERGED"
        print(f"{label:>24}: stream {stream_sha[:16]} "
              f"state {state_sha[:16]} {verdict}")
        lines.append(f"{label}: stream={stream_sha} "
                     f"state={state_sha} {verdict}")
        if combo["backend"] == "mp":
            print(f"{'':>24}  {_recovery_line(recovery)}")
            lines.append(f"{label}: {_recovery_line(recovery)}")
        if not ok:
            failures.append(label)
            lines.append(_first_divergence(ref_stream, stream))
    if args.report and failures:
        with open(args.report, "w", encoding="utf-8") as handle:
            handle.write("\n".join(lines) + "\n")
        print(f"divergence report written to {args.report}")
    if failures:
        print(f"FAIL: {len(failures)} combination(s) diverged: "
              f"{', '.join(failures)}")
        return 1
    print("PASS: all combinations bit-identical to the single-loop oracle")
    return 0


if __name__ == "__main__":  # pragma: no cover - CLI entry
    sys.exit(main())
