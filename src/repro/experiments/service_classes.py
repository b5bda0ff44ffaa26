"""Service-class differentiation on an open job stream (§5.4's note).

"A similar form of control could be employed by database or
transaction-processing applications to manage the response times seen
by competing clients or transactions... different levels of service to
clients or transactions with varying importance (or real monetary
funding)."

This experiment evaluates exactly that on the trace-replay substrate:
a Poisson stream of CPU jobs at ~80% offered load, each job assigned a
ticket class (gold/silver/bronze = 400/200/100).  Under lottery
scheduling, mean *slowdown* (response time over unloaded duration)
orders gold < silver < bronze; ticket-blind round-robin serves all
classes identically.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, Tuple

from repro.core.prng import ParkMillerPRNG
from repro.core.tickets import Ledger
from repro.experiments.common import ExperimentResult
from repro.kernel.kernel import Kernel
from repro.schedulers.lottery_policy import LotteryPolicy
from repro.schedulers.round_robin import RoundRobinPolicy
from repro.schedulers.stride import StridePolicy
from repro.sim.engine import Engine
from repro.workloads.trace_replay import (
    TraceReplayer,
    WorkloadTrace,
    generate_poisson_trace,
)

__all__ = ["CLASSES", "build_trace", "run_stream", "run", "main"]

#: Ticket count -> human-readable service class.
CLASSES: Dict[float, str] = {400.0: "gold", 200.0: "silver", 100.0: "bronze"}


def build_trace(jobs: int = 900, arrival_rate_per_s: float = 1.6,
                mean_cpu_ms: float = 250.0, seed: int = 2025) -> WorkloadTrace:
    """The standard stream: ~80% offered load on one CPU."""
    return generate_poisson_trace(
        count=jobs,
        arrival_rate_per_s=arrival_rate_per_s,
        mean_cpu_ms=mean_cpu_ms,
        phases_per_job=2,
        tickets_choices=tuple(CLASSES),
        seed=seed,
    )


def run_stream(policy_name: str, duration_ms: float = 600_000.0,
               trace: WorkloadTrace = None, seed: int = 99,
               ) -> Tuple[TraceReplayer, Dict[str, float]]:
    """Replay the stream under one policy; returns per-class slowdowns."""
    engine = Engine()
    ledger = Ledger()
    if policy_name == "lottery":
        policy = LotteryPolicy(ledger, prng=ParkMillerPRNG(seed))
    elif policy_name == "stride":
        policy = StridePolicy()
    elif policy_name == "round-robin":
        policy = RoundRobinPolicy()
    else:
        raise ValueError(f"unknown policy {policy_name!r}")
    kernel = Kernel(engine, policy, ledger=ledger, quantum=100.0)
    replayer = TraceReplayer(kernel, trace if trace is not None
                             else build_trace())
    replayer.start()
    kernel.run_until(duration_ms)
    slowdowns = replayer.slowdowns()
    by_class = defaultdict(list)
    for job in replayer.trace:
        if job.name in slowdowns:
            by_class[CLASSES[job.tickets]].append(slowdowns[job.name])
    means = {
        name: sum(values) / len(values)
        for name, values in by_class.items() if values
    }
    return replayer, means


def run(duration_ms: float = 600_000.0, seed: int = 2025) -> ExperimentResult:
    """Per-class slowdowns under lottery, stride, and round-robin."""
    result = ExperimentResult(
        name="Service classes on an open job stream (§5.4 note)",
        params={
            "jobs": 900,
            "offered_load": "~80% of one CPU",
            "classes": "gold=400, silver=200, bronze=100 tickets",
        },
    )
    for policy in ("lottery", "stride", "round-robin"):
        replayer, means = run_stream(policy, duration_ms=duration_ms,
                                     trace=build_trace(seed=seed))
        row = {"policy": policy, "completed": replayer.completed()}
        for name in ("gold", "silver", "bronze"):
            row[f"{name}_slowdown"] = means.get(name, float("nan"))
        result.rows.append(row)
    lottery_row = next(r for r in result.rows if r["policy"] == "lottery")
    rr_row = next(r for r in result.rows if r["policy"] == "round-robin")
    result.measures["lottery_slowdown"] = [
        lottery_row[f"{c}_slowdown"] for c in ("gold", "silver", "bronze")]
    result.summary["lottery class spread"] = (
        f"gold {lottery_row['gold_slowdown']:.2f}x < silver "
        f"{lottery_row['silver_slowdown']:.2f}x < bronze "
        f"{lottery_row['bronze_slowdown']:.2f}x"
    )
    result.summary["round-robin class spread"] = (
        f"{min(rr_row[k] for k in ('gold_slowdown', 'silver_slowdown', 'bronze_slowdown')):.2f}x"
        f" .. {max(rr_row[k] for k in ('gold_slowdown', 'silver_slowdown', 'bronze_slowdown')):.2f}x"
        " (flat: tickets ignored)"
    )
    return result


def main() -> None:  # pragma: no cover - CLI convenience
    run().print_report()


if __name__ == "__main__":  # pragma: no cover
    main()
