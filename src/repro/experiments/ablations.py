"""Ablations of the design choices the paper motivates.

* **A2 quantum/accuracy law** (section 2.2): the coefficient of
  variation of a client's observed win proportion is sqrt((1-p)/(n p)),
  so halving the quantum (doubling lotteries per second) improves
  accuracy by sqrt(2).  We hold lotteries directly and compare the
  empirical CV against the law.
* **A3 lottery vs stride variance**: the deterministic stride scheduler
  (the authors' follow-up) achieves O(1) absolute error where the
  lottery's grows as O(sqrt(n)).
* **A4 compensation tickets** (sections 3.4/4.5): without them, an
  I/O-bound thread using a fraction f of each quantum receives only
  ~f of its entitled share (the paper's 1:5 example); with them, 1:1.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.core.lottery import ListLottery
from repro.core.prng import ParkMillerPRNG
from repro.experiments.common import ExperimentResult, build_machine
from repro.metrics.stats import mean, stdev, win_proportion_cv
from repro.workloads.dhrystone import DhrystoneTask
from repro.workloads.synthetic import CpuBound, FractionalQuantum

__all__ = [
    "run_quantum_accuracy",
    "run_lottery_vs_stride",
    "run_compensation",
    "main",
]


def run_quantum_accuracy(
    lottery_counts: Sequence[int] = (100, 400, 1600, 6400),
    share: float = 0.25, trials: int = 200, seed: int = 8,
) -> ExperimentResult:
    """A2: empirical CV of win proportion vs the sqrt((1-p)/(np)) law."""
    result = ExperimentResult(
        name="Ablation A2: allocations vs fairness (CV law)",
        params={"share": share, "trials": trials},
    )
    prng = ParkMillerPRNG(seed)
    values = {"target": share, "rest": 1.0 - share}
    for count in lottery_counts:
        proportions: List[float] = []
        for _ in range(trials):
            lottery = ListLottery(value_of=values.__getitem__,
                                  move_to_front=False)
            lottery.add("target")
            lottery.add("rest")
            wins = sum(
                1 for _ in range(count) if lottery.draw(prng) == "target"
            )
            proportions.append(wins / count)
        mu = mean(proportions)
        cv = stdev(proportions) / mu if mu else float("inf")
        predicted = win_proportion_cv(count, share)
        result.rows.append(
            {
                "lotteries": count,
                "observed_cv": cv,
                "predicted_cv": predicted,
                "ratio": cv / predicted if predicted else float("inf"),
            }
        )
    result.summary["law"] = "CV = sqrt((1-p)/(n p)); accuracy ~ sqrt(n)"
    return result


def run_lottery_vs_stride(
    checkpoints_ms: Sequence[float] = (1_000, 10_000, 100_000),
    tickets: Optional[Dict[str, float]] = None,
    seed: int = 17, quantum: float = 100.0,
) -> ExperimentResult:
    """A3: absolute allocation error, randomized vs deterministic."""
    if tickets is None:
        tickets = {"A": 700.0, "B": 200.0, "C": 100.0}
    result = ExperimentResult(
        name="Ablation A3: lottery vs stride allocation error",
        params={"tickets": dict(tickets), "quantum_ms": quantum},
    )
    total = sum(tickets.values())
    for policy in ("lottery", "stride"):
        machine = build_machine(seed=seed, policy=policy, quantum=quantum)
        for name, amount in sorted(tickets.items()):
            machine.kernel.spawn(DhrystoneTask(name).body, name,
                                 tickets=amount)
        for checkpoint in sorted(checkpoints_ms):
            machine.run_until(checkpoint)
            # Max absolute error in quanta between observed CPU and the
            # entitled share (the metric the stride paper plots).
            worst = 0.0
            for name, amount in tickets.items():
                entitled = checkpoint * (amount / total)
                thread = next(
                    t for t in machine.kernel.threads if t.name == name
                )
                worst = max(worst, abs(thread.cpu_time - entitled) / quantum)
            result.rows.append(
                {
                    "policy": policy,
                    "time_ms": checkpoint,
                    "max_error_quanta": worst,
                }
            )
    lottery_errors = [r["max_error_quanta"] for r in result.rows
                      if r["policy"] == "lottery"]
    stride_errors = [r["max_error_quanta"] for r in result.rows
                     if r["policy"] == "stride"]
    stride_max = result.measures["stride_max_error"] = max(stride_errors)
    result.summary["lottery error growth"] = (
        f"{lottery_errors[0]:.1f} -> {lottery_errors[-1]:.1f} quanta"
        " (grows ~sqrt(n))"
    )
    result.summary["stride error"] = (
        f"max {stride_max:.1f} quanta (stays O(1))"
    )
    return result


def run_compensation(duration_ms: float = 300_000.0, burst_ms: float = 20.0,
                     quantum: float = 100.0, seed: int = 23) -> ExperimentResult:
    """A4: the section 4.5 scenario with compensation on and off."""
    result = ExperimentResult(
        name="Ablation A4: compensation tickets (section 4.5 scenario)",
        params={
            "duration_ms": duration_ms,
            "quantum_ms": quantum,
            "burst_ms": burst_ms,
            "allocation": "1:1",
        },
    )
    for policy in ("lottery", "lottery-no-compensation"):
        machine = build_machine(seed=seed, policy=policy, quantum=quantum)
        cpu_hog = CpuBound("hog", chunk_ms=quantum)
        fractional = FractionalQuantum("frac", burst_ms=burst_ms)
        hog_thread = machine.kernel.spawn(cpu_hog.body, "hog", tickets=400)
        frac_thread = machine.kernel.spawn(fractional.body, "frac", tickets=400)
        machine.run_until(duration_ms)
        ratio = (hog_thread.cpu_time / frac_thread.cpu_time
                 if frac_thread.cpu_time else float("inf"))
        result.rows.append(
            {
                "policy": policy,
                "hog_cpu_ms": hog_thread.cpu_time,
                "frac_cpu_ms": frac_thread.cpu_time,
                "cpu_ratio": ratio,
            }
        )
    result.measures["cpu_ratio"] = {row["policy"]: row["cpu_ratio"]
                                    for row in result.rows}
    expected_distortion = result.measures["expected_distortion"] = (
        quantum / burst_ms)
    result.summary["expected"] = (
        "with compensation ~1:1;"
        f" without ~{expected_distortion:.0f}:1 (paper's 1:5 example"
        " inverted: hog gets the fraction user's unused share)"
    )
    return result


def main() -> None:  # pragma: no cover - CLI convenience
    run_quantum_accuracy().print_report()
    run_lottery_vs_stride().print_report()
    run_compensation().print_report()


if __name__ == "__main__":  # pragma: no cover
    main()
