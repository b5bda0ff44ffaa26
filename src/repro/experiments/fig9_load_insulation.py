"""Figure 9: currencies insulate loads (paper section 5.5).

Five Dhrystone tasks run in two identically funded currencies A and B:
A1 = 100.A, A2 = 200.A, B1 = 100.B, B2 = 200.B; halfway through, task
B3 = 300.B starts, inflating currency B's issue from 300 to 600.  The
inflation is locally contained: B1 and B2 slow to about half their
rates while A1 and A2 are unaffected, and the aggregate A:B progress
stays 1:1 (the paper measured slope ratios of 1.01:1 before and
1.00:1 after, with A's aggregate iteration ratio to B at 1.01:1).
"""

from __future__ import annotations

from typing import Dict

from repro.experiments.common import (ExperimentResult, build_machine,
                                      cumulative_rows)
from repro.workloads.dhrystone import DhrystoneTask

__all__ = ["run", "main"]


def run(duration_ms: float = 300_000.0, seed: int = 31415,
        sample_every_ms: float = 10_000.0) -> ExperimentResult:
    """Reproduce Figure 9: inflation inside B leaves A untouched."""
    machine = build_machine(seed=seed)
    ledger = machine.ledger
    currency_a = ledger.create_currency("A")
    currency_b = ledger.create_currency("B")
    ledger.create_ticket(1000, fund=currency_a)
    ledger.create_ticket(1000, fund=currency_b)

    tasks: Dict[str, DhrystoneTask] = {}

    def start(name: str, currency, amount: float) -> None:
        workload = DhrystoneTask(name)
        tasks[name] = workload
        kernel_task = machine.kernel.create_task(name)
        kernel_task.currency = currency
        machine.kernel.spawn(
            workload.body, name, task=kernel_task,
            tickets=amount, currency=currency,
        )

    start("A1", currency_a, 100)
    start("A2", currency_a, 200)
    start("B1", currency_b, 100)
    start("B2", currency_b, 200)
    switch_at = duration_ms / 2.0
    machine.engine.call_at(
        switch_at, lambda: start("B3", currency_b, 300), label="start-B3"
    )
    machine.run_until(duration_ms)

    result = ExperimentResult(
        name="Figure 9: currencies insulate loads",
        params={
            "duration_ms": duration_ms,
            "funding": "A=1000 base, B=1000 base",
            "tasks": "A1=100.A A2=200.A B1=100.B B2=200.B (+B3=300.B at T/2)",
        },
    )
    result.rows = cumulative_rows(
        {f"{name}_iters": task.counter for name, task in tasks.items()},
        duration_ms, sample_every_ms)

    factors = result.measures["rate_factor"] = {}
    for name in ("A1", "A2", "B1", "B2"):
        first = tasks[name].rate_per_second(0, switch_at)
        second = tasks[name].rate_per_second(switch_at, duration_ms)
        if first:
            factors[name] = second / first
        result.summary[f"{name} rate (before -> after B3)"] = (
            f"{first:.0f} -> {second:.0f} iters/s"
            f" ({factors[name]:.2f}x)" if first else "n/a"
        )
    total_a = tasks["A1"].iterations + tasks["A2"].iterations
    total_b = sum(tasks[n].iterations for n in ("B1", "B2", "B3") if n in tasks)
    if total_b:
        result.measures["aggregate_ratio"] = total_a / total_b
    result.summary["aggregate A:B iterations"] = (
        f"{result.measures['aggregate_ratio']:.3f} : 1 (funded 1 : 1)"
        if total_b else "n/a"
    )
    return result


def main() -> None:  # pragma: no cover - CLI convenience
    from repro.metrics.ascii_chart import line_chart

    result = run()
    result.print_report()
    names = [key[:-6] for key in result.rows[0] if key.endswith("_iters")]
    print()
    print(line_chart(
        {
            name: [(r["time_s"], r[f"{name}_iters"]) for r in result.rows]
            for name in names
        },
        title="Figure 9: cumulative iterations (B3 starts at T/2)",
        y_label="iterations",
    ))


if __name__ == "__main__":  # pragma: no cover
    main()
