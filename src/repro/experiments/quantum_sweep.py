"""Quantum-size sweep: fairness horizon vs dispatch overhead (§2.2).

The paper: "With a scheduling quantum of 10 milliseconds (100 lotteries
per second), reasonable fairness can be achieved over subsecond time
intervals" -- and, discussing the prototype, that a 10 ms quantum would
have shown Figure 5's fairness over sub-second windows instead of 8 s
ones.  "As computation speeds continue to increase, shorter time quanta
can be used to further improve accuracy while maintaining a fixed
proportion of scheduler overhead."

This experiment runs the same 2:1 workload at several quantum sizes and
reports (a) the coefficient of variation of the funded thread's
one-second-window CPU share -- the fairness a user experiences at human
time scales -- and (b) dispatches per simulated second, the overhead
knob the quantum trades against.  The CV should shrink ~ 1/sqrt(quantum
count per window), i.e. halve for every 4x quantum reduction.
"""

from __future__ import annotations

from typing import Sequence

from repro.experiments.common import ExperimentResult, build_machine
from repro.kernel.syscalls import Compute
from repro.metrics.recorder import KernelRecorder
from repro.metrics.stats import mean, stdev, win_proportion_cv

__all__ = ["run", "run_quantum", "main"]


def run_quantum(quantum_ms: float, duration_ms: float = 120_000.0,
                window_ms: float = 1_000.0, seed: int = 99) -> dict:
    """One 2:1 run; returns window-share CV and dispatch rate."""
    machine = build_machine(seed=seed, quantum=quantum_ms)
    recorder = KernelRecorder()
    machine.kernel.recorder = recorder

    def spin(ctx):
        while True:
            yield Compute(quantum_ms)

    favored = machine.kernel.spawn(spin, "favored", tickets=200)
    machine.kernel.spawn(spin, "other", tickets=100)
    machine.run_until(duration_ms)

    shares = []
    t = 0.0
    while t < duration_ms - 1e-9:
        shares.append(recorder.cpu_share(favored, t, t + window_ms))
        t += window_ms
    mu = mean(shares)
    cv = stdev(shares) / mu if mu else float("inf")
    return {
        "quantum_ms": quantum_ms,
        "window_share_mean": mu,
        "window_share_cv": cv,
        "dispatches_per_s": machine.kernel.dispatch_count
        / (duration_ms / 1000.0),
        "predicted_cv": win_proportion_cv(window_ms / quantum_ms, 2 / 3),
    }


def run(quanta: Sequence[float] = (10.0, 25.0, 50.0, 100.0, 200.0),
        duration_ms: float = 120_000.0, seed: int = 99) -> ExperimentResult:
    """Sweep quantum sizes for the 2:1 allocation."""
    result = ExperimentResult(
        name="Quantum sweep: sub-second fairness vs dispatch rate (§2.2)",
        params={
            "allocation": "2:1",
            "window_ms": 1000.0,
            "duration_ms": duration_ms,
        },
    )
    for quantum in quanta:
        result.rows.append(
            run_quantum(quantum, duration_ms=duration_ms, seed=seed)
        )
    smallest = result.rows[0]
    largest = result.rows[-1]
    m = result.measures
    m["window_share_cv"] = [row["window_share_cv"] for row in result.rows]
    # How far the sweep strays from section 2's CV law and the 2:1 share.
    m["cv_law_error"] = max(abs(row["window_share_cv"] / row["predicted_cv"]
                                - 1.0) for row in result.rows)
    m["share_error"] = max(abs(row["window_share_mean"] - 2 / 3)
                           for row in result.rows)
    result.summary["CV at smallest quantum"] = (
        f"{smallest['window_share_cv']:.3f} at {smallest['quantum_ms']:g} ms"
    )
    result.summary["CV at largest quantum"] = (
        f"{largest['window_share_cv']:.3f} at {largest['quantum_ms']:g} ms"
    )
    result.summary["paper claim"] = (
        "10 ms quanta give sub-second fairness; CV shrinks ~ sqrt(quantum)"
    )
    return result


def main() -> None:  # pragma: no cover - CLI convenience
    run().print_report()


if __name__ == "__main__":  # pragma: no cover
    main()
