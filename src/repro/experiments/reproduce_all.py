"""One-shot reproduction driver: every figure, one verdict per line.

``python -m repro.experiments.reproduce_all`` runs reduced scales (tens
of seconds) for a fast end-to-end sanity check;
``python -m repro.experiments.reproduce_all --full`` runs the paper's
scales (about a minute).

Each row of :data:`CHECKS` runs one experiment and judges the paper's
headline shape on its ``measures``, printing PASS/FAIL plus the measured
value -- a compact, self-auditing version of EXPERIMENTS.md.

``--checkpoint-every T`` appends :func:`checkpoint_sweep`: a crash and
restore every T virtual ms of the chaos system must leave its dispatch
stream bit-identical to an uninterrupted run (``docs/CHECKPOINT.md``).
"""

from __future__ import annotations

import argparse
import math
import os
import sys
import tempfile
from typing import Any, Callable, Dict, List, NamedTuple, Optional, Tuple

from repro.errors import ExperimentError
from repro.experiments import (
    ablations, cluster_fairness, diverse_resources, fig1_walkthrough,
    fig4_rate_accuracy, fig5_fairness_over_time, fig6_montecarlo,
    fig7_query_rates, fig8_video_rates, fig9_load_insulation, fig11_mutex,
    inverse_memory, multiresource, overhead, paging_runtime, quantum_sweep,
    responsiveness, service_classes, serving_tail, shard_observability)
from repro.experiments.common import ExperimentResult

__all__ = ["reproduce", "checkpoint_sweep", "telemetry_trace", "main"]


class Check(NamedTuple):
    """One headline shape: ``experiment`` at its ``quick`` or ``full``
    arguments (``{}``: its defaults, the paper's scale), its ``measures``
    judged by ``verdict`` and rendered by ``detail``."""

    label: str
    experiment: Callable[..., ExperimentResult]
    quick: Dict[str, Any]
    full: Dict[str, Any]
    verdict: Callable[[Dict[str, Any]], bool]
    detail: Callable[[Dict[str, Any]], str]

    def __call__(self, quick: bool) -> Tuple[bool, str]:
        measures = self.experiment(**(self.quick if quick else self.full)
                                   ).measures
        return self.verdict(measures), self.detail(measures)


def _paging(m: Dict[str, Any]) -> bool:
    # The funded worker keeps its working set, so faults less, so runs
    # faster; the scanner's set never fits under either policy.
    inverse, lru = m["inverse-lottery"], m["lru"]
    return (inverse["worker_steps"] > 1.15 * lru["worker_steps"]
            and inverse["worker_resident"] > 2 * lru["worker_resident"]
            and inverse["worker_fault_rate"] < lru["worker_fault_rate"] / 1.8
            and inverse["scanner_fault_rate"] > 0.98
            and lru["scanner_fault_rate"] > 0.98)


CHECKS: List[Check] = [
    Check("Figure 1  list-lottery walkthrough", fig1_walkthrough.run,
          {"draws": 20_000}, {}, lambda m: m["winner"] == 3,
          "client {winner} (the paper's third client wins on ticket 15)"
          .format_map),
    Check("Figure 4  rate accuracy", fig4_rate_accuracy.run,
          {"ratios": [2, 5, 10], "runs": 2, "duration_ms": 30_000}, {},
          lambda m: m["worst_error"] < 0.45,
          "worst relative error {worst_error:.2f}".format_map),
    Check("Figure 5  fairness over time", fig5_fairness_over_time.run,
          {"duration_ms": 60_000}, {},
          lambda m: abs(m["ratio"] - m["allocated"]) < 0.4,
          "overall ratio {ratio:.2f}:1 (want 2:1)".format_map),
    Check("Figure 6  Monte-Carlo inflation", fig6_montecarlo.run,
          {"duration_ms": 240_000, "stagger_ms": 40_000}, {},
          lambda m: m["spread"] < 0.5,
          "final trial spread {spread:.1%} (converging)".format_map),
    Check("Figure 7  client-server 8:3:1", fig7_query_rates.run,
          {"duration_ms": 300_000, "corpus_kb": 1000}, {},
          lambda m: abs(m["bc_ratio"] - m["bc_allocated"]) < 1.0,
          "B:C throughput {bc_ratio:.2f}:1 (want 3:1)".format_map),
    Check("Figure 8  video rates", fig8_video_rates.run,
          {"duration_ms": 120_000}, {},
          lambda m: m["before"][0] > m["before"][1] > m["before"][2],
          "before-change ratio {before[0]:.2f} : {before[1]:.2f} :"
          " {before[2]:.2f} (want 3:2:1 order)".format_map),
    Check("Figure 9  load insulation", fig9_load_insulation.run,
          {"duration_ms": 160_000}, {},
          lambda m: abs(m["aggregate_ratio"] - 1.0) < 0.15,
          "aggregate A:B {aggregate_ratio:.2f}:1".format_map),
    Check("Figure 11 lottery mutex", fig11_mutex.run,
          {"duration_ms": 60_000}, {},
          lambda m: 1.3 < m["acquisition_ratio"] < 2.7,
          "acquisition ratio {acquisition_ratio:.2f}:1 (want ~2:1)"
          .format_map),
    # The lottery's dispatch takes exact work comparable to
    # timesharing's, and both deliver the same virtual CPU.
    Check("Sec. 5.6  scheduling overhead", overhead.run,
          {"duration_ms": 30_000}, {"duration_ms": 100_000},
          lambda m: (m["work_ratio"] <= overhead.WORK_RATIO_BOUND
                     and 0.95 < m["iterations_ratio"] < 1.05),
          "lottery/timesharing calls a dispatch {work_ratio:.3f}x,"
          " iterations {iterations_ratio:.3f}x (want comparable)".format_map),
    # 10 ms quanta give sub-second fairness (one-second share varies by
    # under 10%); at every quantum the CV follows sqrt((1-p)/np) and
    # the long-run share stays 2:1.
    Check("Sec. 2.2  quantum vs fairness", quantum_sweep.run,
          {"quanta": (10.0, 100.0), "duration_ms": 60_000},
          {"quanta": (10.0, 100.0)},
          lambda m: (m["window_share_cv"][0]
                     < min(0.10, m["window_share_cv"][1] / 2)
                     and m["cv_law_error"] < 0.35 and m["share_error"] < 0.03),
          "1s-window CV {window_share_cv[0]:.3f} @10ms vs"
          " {window_share_cv[1]:.3f} @100ms".format_map),
    Check("Sec. 4.5  compensation tickets", ablations.run_compensation,
          {"duration_ms": 120_000}, {},
          lambda m: (abs(m["cpu_ratio"]["lottery"] - 1.0) < 0.25
                     and abs(m["cpu_ratio"]["lottery-no-compensation"]
                             - m["expected_distortion"]) < 1.5),
          "ratio {cpu_ratio[lottery]:.2f}:1 with compensation,"
          " {cpu_ratio[lottery-no-compensation]:.2f}:1 without".format_map),
    Check("Sec. 6.2  inverse-lottery memory", inverse_memory.run,
          {"references": 15_000}, {},
          lambda m: (m["eviction_share"]["A"] < m["eviction_share"]["B"]
                     < m["eviction_share"]["C"]),
          "eviction shares A={eviction_share[A]:.2f} B={eviction_share[B]:.2f}"
          " C={eviction_share[C]:.2f} (want increasing)".format_map),
    Check("Sec. 6.2  paging end-to-end", paging_runtime.run,
          {"duration_ms": 60_000}, {}, _paging,
          "worker steps {inverse-lottery[worker_steps]:.0f} inverse vs"
          " {lru[worker_steps]:.0f} LRU".format_map),
    Check("Sec. 6    disk & link lotteries", diverse_resources.run, {}, {},
          lambda m: abs(m["disk_ratio"] - 3.0) < 0.6,
          "disk lottery A:B {disk_ratio:.2f}:1 (want 3:1)".format_map),
    Check("Ext  stride determinism", ablations.run_lottery_vs_stride,
          {"checkpoints_ms": (10_000, 50_000)},
          {"checkpoints_ms": (10_000, 50_000)},
          lambda m: m["stride_max_error"] <= 1.5,
          "stride max error {stride_max_error:.1f} quanta".format_map),
    Check("Ext  multi-resource manager", multiresource.run,
          {"duration_ms": 200_000}, {},
          lambda m: m["manager_gain"] >= 0.9,
          lambda m: f"manager {m['items']['manager']} items vs best static"
                    f" {m['best_static_items']}"),
    Check("Ext  distributed lottery", cluster_fairness.run,
          {"duration_ms": 100_000}, {},
          lambda m: (m["rebalancing"]["max_relative_error"]
                     < m["static placement"]["max_relative_error"] / 2),
          "max error {static placement[max_relative_error]:.2f} static ->"
          " {rebalancing[max_relative_error]:.2f} rebalanced".format_map),
    Check("Ext  responsiveness", responsiveness.run,
          {"duration_ms": 60_000}, {},
          lambda m: (m["mean_latency_ms"]["lottery"]
                     < m["mean_latency_ms"]["lottery-no-compensation"] / 3),
          "latency {mean_latency_ms[lottery]:.0f}ms with compensation,"
          " {mean_latency_ms[lottery-no-compensation]:.0f}ms without"
          .format_map),
    Check("Ext  service classes", service_classes.run,
          {"duration_ms": 300_000}, {},
          lambda m: (m["lottery_slowdown"][0] < m["lottery_slowdown"][1]
                     < m["lottery_slowdown"][2]),
          "slowdowns {lottery_slowdown[0]:.1f}/{lottery_slowdown[1]:.1f}/"
          "{lottery_slowdown[2]:.1f} (gold/silver/bronze)".format_map),
    Check("Ext  serving tail latency", serving_tail.run,
          {"requests": 200}, {"requests": 600}, lambda m: m["passed"],
          lambda m: "lottery ordered {}, timesharing ordered {}, slo recovery"
                    " epoch {}".format(
                        "yes" if m["lottery_ordered"] else "NO",
                        "yes" if m["timesharing_ordered"] else "no",
                        "never" if m["recovery_epoch"] is None
                        else m["recovery_epoch"])),
    Check("Ext  shard observability", shard_observability.run, {}, {},
          lambda m: len(m["canonical_sha"]) == len(m["trace_sha"]) == 1
          and m["slo_ok"],
          "canonical report {canonical_sha[0]:.12} across {backends} backends"
          .format_map),
]


def checkpoint_sweep(every_ms: float, duration_ms: float = 60_000.0,
                     seed: int = 2718) -> Tuple[bool, str]:
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

    live = build_recipe("chaos-fairness", {"seed": seed})
    count = 0
    checkpoint_at = every_ms
    with tempfile.TemporaryDirectory() as workdir:
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


def _line(label: str, run: Callable[[], Tuple[bool, str]]) -> bool:
    """Run one check and print its verdict line; True if it passed."""
    try:
        ok, detail = run()
    except Exception as exc:  # pragma: no cover - surfacing only
        ok, detail = False, f"crashed: {exc!r}"
    print(f"[{'PASS' if ok else 'FAIL'}] {label:<36} {detail}")
    return ok


def reproduce(quick: bool = True,
              checkpoint_every: Optional[float] = None,
              trace_out: Optional[str] = None) -> int:
    """Run every check; returns the number of failures."""
    mode = "quick" if quick else "full"
    print(f"reproducing the OSDI '94 evaluation ({mode} mode)\n")
    passed = [_line(check.label, lambda: check(quick)) for check in CHECKS]
    duration_ms = 60_000.0 if quick else 240_000.0
    if checkpoint_every is not None:
        passed.append(_line(
            f"Ext  checkpoint/replay every {checkpoint_every:g}ms",
            lambda: checkpoint_sweep(checkpoint_every, duration_ms)))
    if trace_out is not None:
        passed.append(_line("Ext  telemetry trace export",
                            lambda: telemetry_trace(trace_out, duration_ms)))
    failures = passed.count(False)
    print(f"\n{len(passed) - failures}/{len(passed)} headline shapes"
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
