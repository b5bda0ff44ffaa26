"""Interactive responsiveness under load (paper sections 1, 3.4).

The introduction motivates lottery scheduling with interactive systems
that "require rapid, dynamic control over scheduling at a time scale of
milliseconds to seconds", and section 3.4 notes compensation tickets
"permit I/O-bound tasks that use few processor cycles to start
quickly".  This experiment quantifies that: an interactive thread
(short bursts, mostly blocked) competes with N compute-bound hogs, and
we measure its scheduling latency (wake to dispatch) under

* lottery scheduling with compensation (the paper's design),
* lottery without compensation (ablation),
* decay-usage timesharing (the classical answer to interactivity),
* round-robin and fixed low priority (the pathological baselines).

Shape to reproduce: with compensation, the interactive thread's latency
stays near one quantum even under heavy load *while its long-run share
stays proportional*; without compensation it queues like a hog; under
fixed low priority it starves outright.
"""

from __future__ import annotations

from typing import Dict, List

from repro.experiments.common import ExperimentResult, build_machine
from repro.kernel.syscalls import Compute, Sleep
from repro.metrics.recorder import KernelRecorder
from repro.metrics.stats import mean

__all__ = ["run", "run_policy", "main"]


def run_policy(policy: str, hogs: int = 5, duration_ms: float = 120_000.0,
               burst_ms: float = 5.0, think_ms: float = 95.0,
               seed: int = 77) -> Dict[str, float]:
    """One policy run; returns the interactive thread's latency stats."""
    machine = build_machine(seed=seed, policy=policy)
    recorder = KernelRecorder()
    machine.kernel.recorder = recorder

    def interactive(ctx):
        while True:
            yield Sleep(think_ms)
            yield Compute(burst_ms)

    def hog(ctx):
        while True:
            yield Compute(100.0)

    # Equal per-thread funding: the interactive thread is entitled to
    # 1/(hogs+1) but only asks for ~5% CPU.
    ui_thread = machine.kernel.spawn(interactive, "ui", tickets=100,
                                     priority=1)
    for index in range(hogs):
        machine.kernel.spawn(hog, f"hog{index}", tickets=100, priority=2)
    machine.run_until(duration_ms)

    latencies: List[float] = recorder.latencies.get(ui_thread.tid, [])
    return {
        "policy": policy,
        "mean_latency_ms": mean(latencies),
        "worst_latency_ms": max(latencies) if latencies else float("inf"),
        "bursts_completed": len(latencies),
        "ui_cpu_ms": ui_thread.cpu_time,
    }


def run(duration_ms: float = 120_000.0, hogs: int = 5,
        seed: int = 77) -> ExperimentResult:
    """Interactive latency across policies."""
    result = ExperimentResult(
        name="Responsiveness: interactive thread vs compute-bound load",
        params={
            "hogs": hogs,
            "duration_ms": duration_ms,
            "interactive": "5 ms burst / 95 ms think, equal funding",
        },
    )
    for policy in ("lottery", "lottery-no-compensation", "timesharing",
                   "round-robin", "fixed-priority"):
        row = run_policy(policy, hogs=hogs, duration_ms=duration_ms,
                         seed=seed)
        result.rows.append(row)
    by_policy = {row["policy"]: row for row in result.rows}
    result.measures["mean_latency_ms"] = {
        policy: row["mean_latency_ms"] for policy, row in by_policy.items()}
    with_comp = by_policy["lottery"]["mean_latency_ms"]
    without = by_policy["lottery-no-compensation"]["mean_latency_ms"]
    result.summary["lottery mean latency (ms)"] = f"{with_comp:.0f}"
    result.summary["no-compensation mean latency (ms)"] = f"{without:.0f}"
    if with_comp > 0:
        result.summary["compensation speedup"] = f"{without / with_comp:.1f}x"
    result.summary["fixed-priority bursts"] = (
        f"{by_policy['fixed-priority']['bursts_completed']}"
        " (the low-priority interactive thread starves)"
    )
    return result


def main() -> None:  # pragma: no cover - CLI convenience
    from repro.metrics.ascii_chart import bar_chart

    result = run()
    result.print_report()
    print()
    print(bar_chart(
        {row["policy"]: row["mean_latency_ms"] for row in result.rows
         if row["mean_latency_ms"] > 0},
        title="mean wake-to-dispatch latency (ms), lower is better",
        unit=" ms",
    ))


if __name__ == "__main__":  # pragma: no cover
    main()
