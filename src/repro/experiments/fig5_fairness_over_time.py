"""Figure 5: fairness over time (paper section 5.1).

Two Dhrystone tasks with a 2:1 allocation run for 200 seconds; average
iterations/sec are computed over a series of 8-second windows.  The
paper observes the two tasks staying close to 2:1 throughout, with
window-level variation (the overall run averaged 25378 vs 12619
iterations/sec, 2.01:1).
"""

from __future__ import annotations

from repro.experiments.common import ExperimentResult, build_machine
from repro.workloads.dhrystone import DhrystoneTask

__all__ = ["run", "main"]


def run(duration_ms: float = 200_000.0, window_ms: float = 8_000.0,
        ratio: float = 2.0, seed: int = 42,
        quantum: float = 100.0) -> ExperimentResult:
    """Reproduce Figure 5: per-window rates for a 2:1 allocation."""
    machine = build_machine(seed=seed, quantum=quantum)
    task_a = DhrystoneTask("A")
    task_b = DhrystoneTask("B")
    machine.kernel.spawn(task_a.body, "A", tickets=100.0 * ratio)
    machine.kernel.spawn(task_b.body, "B", tickets=100.0)
    machine.run_until(duration_ms)

    result = ExperimentResult(
        name="Figure 5: fairness over 8-second windows",
        params={
            "duration_ms": duration_ms,
            "window_ms": window_ms,
            "allocation": f"{ratio:g}:1",
        },
    )
    rates_a = task_a.counter.window_rates(window_ms, duration_ms)
    rates_b = task_b.counter.window_rates(window_ms, duration_ms)
    for (start, rate_a), (_, rate_b) in zip(rates_a, rates_b):
        result.rows.append(
            {
                "window_start_s": start / 1000.0,
                "A_iters_per_s": rate_a,
                "B_iters_per_s": rate_b,
                "ratio": rate_a / rate_b if rate_b else float("inf"),
            }
        )
    overall_a = task_a.iterations / (duration_ms / 1000.0)
    overall_b = task_b.iterations / (duration_ms / 1000.0)
    result.measures.update(ratio=overall_a / overall_b, allocated=ratio)
    result.summary["overall A iters/sec"] = f"{overall_a:.0f}"
    result.summary["overall B iters/sec"] = f"{overall_b:.0f}"
    result.summary["overall ratio"] = (
        f"{result.measures['ratio']:.3f} : 1 (allocated {ratio:g} : 1)"
    )
    return result


def main() -> None:  # pragma: no cover - CLI convenience
    from repro.metrics.ascii_chart import line_chart

    result = run()
    result.print_report()
    print()
    print(line_chart(
        {
            "A": [(r["window_start_s"], r["A_iters_per_s"])
                  for r in result.rows],
            "B": [(r["window_start_s"], r["B_iters_per_s"])
                  for r in result.rows],
        },
        title="Figure 5: iterations/sec per 8 s window",
        y_label="iters/s",
    ))


if __name__ == "__main__":  # pragma: no cover
    main()
