"""Figure 4: relative rate accuracy (paper section 5.1).

Two Dhrystone tasks run for sixty seconds with relative ticket
allocations 1:1 through 10:1, three runs per ratio; the observed
iteration ratio is plotted against the allocated ratio.  The paper
finds all points close to the ideal diagonal, with variance growing
with the ratio (one 10:1 run came in at 13.42:1) and a three-minute
20:1 run at 19.08:1.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.experiments.common import ExperimentResult, build_machine
from repro.metrics.stats import mean, stdev
from repro.workloads.dhrystone import DhrystoneTask

__all__ = ["run", "run_single", "main"]


def run_single(ratio: float, duration_ms: float = 60_000.0,
               seed: int = 1, quantum: float = 100.0,
               tickets_base: float = 100.0) -> float:
    """One sixty-second run; returns the observed iteration ratio."""
    machine = build_machine(seed=seed, quantum=quantum)
    fast = DhrystoneTask("fast")
    slow = DhrystoneTask("slow")
    machine.kernel.spawn(fast.body, "fast", tickets=tickets_base * ratio)
    machine.kernel.spawn(slow.body, "slow", tickets=tickets_base)
    machine.run_until(duration_ms)
    if slow.iterations == 0:
        return float("inf")
    return fast.iterations / slow.iterations


def run(ratios: Optional[Sequence[float]] = None, runs: int = 3,
        duration_ms: float = 60_000.0, seed: int = 1994,
        quantum: float = 100.0) -> ExperimentResult:
    """Reproduce Figure 4: observed vs allocated ratios, ``runs`` each."""
    if ratios is None:
        ratios = list(range(1, 11))
    result = ExperimentResult(
        name="Figure 4: relative rate accuracy",
        params={
            "duration_ms": duration_ms,
            "runs_per_ratio": runs,
            "quantum_ms": quantum,
        },
    )
    worst_error = 0.0
    for ratio in ratios:
        observed = []
        for run_index in range(runs):
            run_seed = seed + 7919 * run_index + int(ratio * 104729)
            observed.append(
                run_single(ratio, duration_ms, seed=run_seed, quantum=quantum)
            )
        for run_index, value in enumerate(observed):
            result.rows.append(
                {"allocated": ratio, "run": run_index, "observed": value}
            )
            worst_error = max(worst_error, abs(value - ratio) / ratio)
        result.summary[f"ratio {ratio}:1"] = (
            f"mean {mean(observed):.2f}, sd {stdev(observed):.2f}"
        )
    result.measures["worst_error"] = worst_error
    result.summary["worst relative error"] = f"{worst_error:.3f}"
    return result


def main() -> None:  # pragma: no cover - CLI convenience
    from repro.metrics.ascii_chart import scatter_chart

    result = run()
    result.print_report()
    points = [(row["allocated"], row["observed"]) for row in result.rows]
    print()
    print(scatter_chart(points, diagonal=True,
                        title="Figure 4: observed vs allocated ratio",
                        x_label="allocated", y_label="observed"))


if __name__ == "__main__":  # pragma: no cover
    main()
