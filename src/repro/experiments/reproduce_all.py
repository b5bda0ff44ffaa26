"""One-shot reproduction driver: every figure, one verdict per line.

``python -m repro.experiments.reproduce_all`` runs reduced scales (tens
of seconds) for a fast end-to-end sanity check;
``python -m repro.experiments.reproduce_all --full`` runs the paper's
scales (about a minute).

Each entry runs one experiment and checks the paper's headline shape,
printing PASS/FAIL plus the measured value -- a compact, self-auditing
version of EXPERIMENTS.md.

``--checkpoint-every T`` appends a checkpoint/replay verification: the
chaos system is run with a crash-and-restore at every T virtual ms (a
multiple of its 500 ms epoch; each checkpoint is saved, the live system
is *discarded*, and the run continues from the restored copy), and the
final dispatch stream must be bit-identical to an uninterrupted
reference run -- zero divergence (see ``docs/CHECKPOINT.md``).
"""

from __future__ import annotations

import argparse
import math
import os
import sys
import tempfile
from typing import Callable, List, Optional, Tuple

from repro.errors import ExperimentError
from repro.experiments import (
    ablations,
    cluster_fairness,
    diverse_resources,
    fig1_walkthrough,
    fig4_rate_accuracy,
    fig5_fairness_over_time,
    fig6_montecarlo,
    fig7_query_rates,
    fig8_video_rates,
    fig9_load_insulation,
    fig11_mutex,
    inverse_memory,
    multiresource,
    overhead,
    paging_runtime,
    quantum_sweep,
    responsiveness,
    service_classes,
    serving_tail,
    shard_observability,
)

__all__ = ["reproduce", "checkpoint_sweep", "telemetry_trace", "main"]

#: (label, runner) -> (verdict bool, human-readable measurement).
Check = Tuple[str, Callable[[bool], Tuple[bool, str]]]


def _fig1(quick: bool):
    result = fig1_walkthrough.run(draws=20_000 if quick else 100_000)
    ok = "client 3" in result.summary["winner"]
    return ok, result.summary["winner"]


def _fig4(quick: bool):
    ratios = [2, 5, 10] if quick else list(range(1, 11))
    result = fig4_rate_accuracy.run(
        ratios=ratios, runs=2 if quick else 3,
        duration_ms=30_000 if quick else 60_000,
    )
    worst = float(result.summary["worst relative error"])
    return worst < 0.45, f"worst relative error {worst:.2f}"


def _fig5(quick: bool):
    result = fig5_fairness_over_time.run(
        duration_ms=60_000 if quick else 200_000
    )
    ratio = float(result.summary["overall ratio"].split(":")[0])
    return abs(ratio - 2.0) < 0.4, f"overall ratio {ratio:.2f}:1 (want 2:1)"


def _fig6(quick: bool):
    result = fig6_montecarlo.run(
        duration_ms=240_000 if quick else 1_000_000,
        stagger_ms=40_000 if quick else 120_000,
    )
    spread = float(result.summary["final spread"].split("%")[0])
    return spread < 50.0, f"final trial spread {spread:.1f}% (converging)"


def _fig7(quick: bool):
    result = fig7_query_rates.run(
        duration_ms=300_000 if quick else 800_000,
        corpus_kb=1000 if quick else 4600,
    )
    ratio = float(result.summary["B:C throughput ratio"].split(":")[0])
    return abs(ratio - 3.0) < 1.0, f"B:C throughput {ratio:.2f}:1 (want 3:1)"


def _fig8(quick: bool):
    result = fig8_video_rates.run(
        duration_ms=120_000 if quick else 300_000
    )
    before = result.summary["frame-rate ratio before"].split("(")[0]
    values = [float(v) for v in before.split(":")]
    ok = values[0] > values[1] > values[2]
    return ok, f"before-change ratio {before.strip()} (want 3:2:1 order)"


def _fig9(quick: bool):
    result = fig9_load_insulation.run(
        duration_ms=160_000 if quick else 300_000
    )
    aggregate = float(
        result.summary["aggregate A:B iterations"].split(":")[0]
    )
    return abs(aggregate - 1.0) < 0.15, f"aggregate A:B {aggregate:.2f}:1"


def _fig11(quick: bool):
    result = fig11_mutex.run(duration_ms=60_000 if quick else 120_000)
    ratio = float(result.summary["acquisition ratio A:B"].split(":")[0])
    return 1.3 < ratio < 2.7, f"acquisition ratio {ratio:.2f}:1 (want ~2:1)"


def _overhead(quick: bool):
    result = overhead.run(duration_ms=30_000 if quick else 100_000)
    factor = float(
        result.summary["lottery/timesharing dispatch cost"].split("x")[0]
    )
    iterations = {row["policy"]: row["iterations"] for row in result.rows}
    delivered = iterations["lottery"] / iterations["timesharing"]
    # Host cost per dispatch comparable (section 5.6), and both policies
    # deliver the same virtual CPU to the workload.
    ok = 0.2 < factor < 5.0 and 0.95 < delivered < 1.05
    return ok, (f"lottery/timesharing dispatch cost {factor:.2f}x,"
                f" iterations {delivered:.3f}x (want comparable)")


def _inverse(quick: bool):
    result = inverse_memory.run(references=15_000 if quick else 60_000)
    shares = {row["client"]: row["observed_share"] for row in result.rows}
    ok = shares["A"] < shares["B"] < shares["C"]
    return ok, (f"eviction shares A={shares['A']:.2f} B={shares['B']:.2f}"
                f" C={shares['C']:.2f} (want increasing)")


def _diverse(quick: bool):
    result = diverse_resources.run()
    disk = float(result.summary["disk lottery A:B"].split(":")[0])
    return abs(disk - 3.0) < 0.6, f"disk lottery A:B {disk:.2f}:1 (want 3:1)"


def _quantum(quick: bool):
    result = quantum_sweep.run(
        quanta=(10.0, 100.0), duration_ms=60_000 if quick else 120_000
    )
    fine, coarse = (row["window_share_cv"] for row in result.rows)
    # 10 ms quanta give sub-second fairness (one-second share varies by
    # under 10%); at every quantum the CV follows sqrt((1-p)/np) and
    # the long-run share stays 2:1.
    ok = (fine < 0.10 and fine < coarse / 2
          and all(abs(row["window_share_cv"] / row["predicted_cv"] - 1.0)
                  < 0.35 and abs(row["window_share_mean"] - 2 / 3) < 0.03
                  for row in result.rows))
    return ok, f"1s-window CV {fine:.3f} @10ms vs {coarse:.3f} @100ms"


def _compensation(quick: bool):
    result = ablations.run_compensation(
        duration_ms=120_000 if quick else 300_000
    )
    rows = {row["policy"]: row["cpu_ratio"] for row in result.rows}
    ok = (abs(rows["lottery"] - 1.0) < 0.25
          and abs(rows["lottery-no-compensation"] - 5.0) < 1.5)
    return ok, (f"ratio {rows['lottery']:.2f}:1 with compensation,"
                f" {rows['lottery-no-compensation']:.2f}:1 without")


def _stride(quick: bool):
    result = ablations.run_lottery_vs_stride(
        checkpoints_ms=(10_000, 50_000)
    )
    stride_max = max(r["max_error_quanta"] for r in result.rows
                     if r["policy"] == "stride")
    return stride_max <= 1.5, f"stride max error {stride_max:.1f} quanta"


def _multiresource(quick: bool):
    result = multiresource.run(duration_ms=200_000 if quick else 400_000)
    items = {row["policy"]: row["items"] for row in result.rows}
    ok = items["manager"] >= 0.9 * max(items.values())
    return ok, (f"manager {items['manager']} items"
                f" vs best static {max(items.values())}")


def _cluster(quick: bool):
    result = cluster_fairness.run(
        duration_ms=100_000 if quick else 200_000
    )
    static = float(result.summary["max relative error (static placement)"])
    balanced = float(result.summary["max relative error (rebalancing)"])
    return balanced < static / 2, (
        f"max error {static:.2f} static -> {balanced:.2f} rebalanced"
    )


def _responsiveness(quick: bool):
    result = responsiveness.run(duration_ms=60_000 if quick else 120_000)
    rows = {row["policy"]: row["mean_latency_ms"] for row in result.rows}
    ok = rows["lottery"] < rows["lottery-no-compensation"] / 3
    return ok, (f"latency {rows['lottery']:.0f}ms with compensation,"
                f" {rows['lottery-no-compensation']:.0f}ms without")


def _paging(quick: bool):
    result = paging_runtime.run(duration_ms=60_000 if quick else 120_000)
    rows = {row["policy"]: row for row in result.rows}
    inverse, lru = rows["inverse-lottery"], rows["lru"]
    # The funded worker keeps its working set, so faults less, so runs
    # faster; the scanner's set never fits under either policy.
    ok = (inverse["worker_steps"] > 1.15 * lru["worker_steps"]
          and inverse["worker_resident"] > 2 * lru["worker_resident"]
          and inverse["worker_fault_rate"] < lru["worker_fault_rate"] / 1.8
          and inverse["scanner_fault_rate"] > 0.98
          and lru["scanner_fault_rate"] > 0.98)
    return ok, (f"worker steps {inverse['worker_steps']:.0f}"
                f" inverse vs {lru['worker_steps']:.0f} LRU")


def _service(quick: bool):
    result = service_classes.run(duration_ms=300_000 if quick else 600_000)
    lottery = next(r for r in result.rows if r["policy"] == "lottery")
    ok = (lottery["gold_slowdown"] < lottery["silver_slowdown"]
          < lottery["bronze_slowdown"])
    return ok, (f"slowdowns {lottery['gold_slowdown']:.1f}/"
                f"{lottery['silver_slowdown']:.1f}/"
                f"{lottery['bronze_slowdown']:.1f} (gold/silver/bronze)")


def _serving(quick: bool):
    result = serving_tail.run(quick=True, requests=200 if quick else 600)
    ok = result.summary["verdict"] == "PASS"
    return ok, (f"lottery ordered "
                f"{result.summary['lottery wake-p99 share-ordered at 1.5x']},"
                f" timesharing ordered "
                f"{result.summary['timesharing wake-p99 share-ordered at 1.5x']},"
                f" slo recovery epoch "
                f"{result.summary['slo bronze recovery epoch']}")


def _shard_obs(quick: bool):
    result = shard_observability.run(until=2000.0)
    agree = (result.summary["canonical reports agree"] == "yes"
             and result.summary["stitched traces agree"] == "yes"
             and result.summary["slo verdict"] == "PASS everywhere")
    shas = {row["canonical"] for row in result.rows}
    return agree, (f"canonical report {shas.pop() if len(shas) == 1 else shas}"
                   f" across {len(result.rows)} backends")


CHECKS: List[Check] = [
    ("Figure 1  list-lottery walkthrough", _fig1),
    ("Figure 4  rate accuracy", _fig4),
    ("Figure 5  fairness over time", _fig5),
    ("Figure 6  Monte-Carlo inflation", _fig6),
    ("Figure 7  client-server 8:3:1", _fig7),
    ("Figure 8  video rates", _fig8),
    ("Figure 9  load insulation", _fig9),
    ("Figure 11 lottery mutex", _fig11),
    ("Sec. 5.6  scheduling overhead", _overhead),
    ("Sec. 2.2  quantum vs fairness", _quantum),
    ("Sec. 4.5  compensation tickets", _compensation),
    ("Sec. 6.2  inverse-lottery memory", _inverse),
    ("Sec. 6.2  paging end-to-end", _paging),
    ("Sec. 6    disk & link lotteries", _diverse),
    ("Ext  stride determinism", _stride),
    ("Ext  multi-resource manager", _multiresource),
    ("Ext  distributed lottery", _cluster),
    ("Ext  responsiveness", _responsiveness),
    ("Ext  service classes", _service),
    ("Ext  serving tail latency", _serving),
    ("Ext  shard observability", _shard_obs),
]


def checkpoint_sweep(every_ms: float, duration_ms: float = 60_000.0,
                     seed: int = 2718,
                     directory: Optional[str] = None) -> Tuple[bool, str]:
    """Crash at every checkpoint; demand a bit-identical final stream.

    Runs the ``chaos-fairness`` recipe twice: once uninterrupted (the
    reference), and once saving a checkpoint every ``every_ms`` virtual
    ms, discarding the live system, and continuing from the restored
    copy -- the worst-case crash/restore schedule.  Success means the
    dispatch streams agree on every (time, thread, draw) triple.
    """
    from repro.checkpoint import (build_recipe, diff_streams,
                                  format_divergence, restore, save)

    if not math.isfinite(every_ms) or every_ms <= 0:
        raise ExperimentError(
            f"checkpoint_sweep every_ms must be finite and positive: "
            f"{every_ms}")
    if every_ms >= duration_ms:
        return False, (f"0 crash/restore cycles: no checkpoint every "
                       f"{every_ms:g}ms falls inside a {duration_ms:g}ms run")
    reference = build_recipe("chaos-fairness", {"seed": seed})
    reference.advance(duration_ms)
    expected = reference.stream()

    def sweep(workdir: str) -> Tuple[bool, str]:
        live = build_recipe("chaos-fairness", {"seed": seed})
        count = 0
        checkpoint_at = every_ms
        while checkpoint_at < duration_ms:
            live.advance(checkpoint_at)
            path = os.path.join(workdir, f"chaos-{checkpoint_at:g}ms.ckpt")
            save(live, path)
            # Crash: drop the live system, resume from the file alone.
            live, _ = restore(path)
            count += 1
            checkpoint_at += every_ms
        live.advance(duration_ms)
        divergence = diff_streams(expected, live.stream())
        if divergence is None:
            return True, (f"{count} crash/restore cycles, "
                          f"{len(expected)} dispatches, zero divergence")
        return False, format_divergence(divergence)

    if directory is not None:
        os.makedirs(directory, exist_ok=True)
        return sweep(directory)
    with tempfile.TemporaryDirectory() as workdir:
        return sweep(workdir)


def telemetry_trace(trace_out: str, duration_ms: float = 60_000.0,
                    seed: int = 2718) -> Tuple[bool, str]:
    """Trace a chaos run and export a schema-valid Chrome trace.

    Runs the chaos plan with the sharded observability plane on, writes
    the stitched Chrome trace-event JSON (plus ``.sha256`` sidecar) to
    ``trace_out``, and validates it against the trace-event schema.
    Success means events were captured and the export is
    Perfetto-loadable.
    """
    import json

    from repro.experiments.chaos_fairness import chaos_plan
    from repro.shard.engine import ShardedEngine
    from repro.telemetry import validate_chrome_trace, write_checksummed

    with ShardedEngine(chaos_plan(seed=seed), obs=True) as engine:
        engine.advance(duration_ms)
        text = engine.stitched_trace()
    problems = validate_chrome_trace(text)
    digest = write_checksummed(trace_out, text)
    if problems:
        return False, f"schema problems: {'; '.join(problems[:3])}"
    events = len(json.loads(text)["traceEvents"])
    return True, (f"{events} events -> {trace_out} "
                  f"sha256={digest[:12]}...")


def reproduce(quick: bool = True,
              checkpoint_every: Optional[float] = None,
              trace_out: Optional[str] = None) -> int:
    """Run every check; returns the number of failures."""
    failures = 0
    mode = "quick" if quick else "full"
    print(f"reproducing the OSDI '94 evaluation ({mode} mode)\n")
    checks: List[Check] = list(CHECKS)
    if checkpoint_every is not None:
        checks.append((
            f"Ext  checkpoint/replay every {checkpoint_every:g}ms",
            lambda q: checkpoint_sweep(
                checkpoint_every,
                duration_ms=60_000.0 if q else 240_000.0,
            ),
        ))
    if trace_out is not None:
        checks.append((
            "Ext  telemetry trace export",
            lambda q: telemetry_trace(
                trace_out, duration_ms=60_000.0 if q else 240_000.0,
            ),
        ))
    for label, check in checks:
        try:
            ok, detail = check(quick)
        except Exception as exc:  # pragma: no cover - surfacing only
            ok, detail = False, f"crashed: {exc!r}"
        verdict = "PASS" if ok else "FAIL"
        print(f"[{verdict}] {label:<36} {detail}")
        if not ok:
            failures += 1
    print(f"\n{len(checks) - failures}/{len(checks)} headline shapes"
          " reproduced")
    return failures


def main() -> None:
    from repro.shard.__main__ import virtual_ms

    parser = argparse.ArgumentParser(
        description="reproduce the paper's evaluation end to end"
    )
    parser.add_argument("--full", action="store_true",
                        help="paper-scale runs (about a minute)")
    parser.add_argument("--checkpoint-every", type=virtual_ms, default=None,
                        metavar="T",
                        help="also verify crash/restore every T virtual ms "
                             "against an uninterrupted reference run")
    parser.add_argument("--trace-out", default=None, metavar="PATH",
                        help="also trace a chaos run with the sharded "
                             "observability plane and export its "
                             "stitched Chrome trace there")
    args = parser.parse_args()
    if args.checkpoint_every == 0.0:
        parser.error("argument --checkpoint-every: expected a positive "
                     "time in ms: 0")
    sys.exit(1 if reproduce(quick=not args.full,
                            checkpoint_every=args.checkpoint_every,
                            trace_out=args.trace_out) else 0)


if __name__ == "__main__":  # pragma: no cover
    main()
