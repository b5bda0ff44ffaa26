"""Figure 6: Monte-Carlo execution rates under dynamic inflation (§5.2).

Three identical Monte-Carlo integrations start two minutes apart; each
periodically sets its ticket value proportional to the square of its
relative error.  A newly started task therefore executes at a high rate
that tapers off as it converges, producing cumulative-trials curves
that catch up to the older experiments -- the "bumps" in the figure.

All three tasks denominate their tickets in a shared ``mc`` currency,
so the error-driven inflation is locally contained (section 3.2's
proviso that inflation be used among mutually trusting clients).
"""

from __future__ import annotations

from typing import List

from repro.core.inflation import ErrorDrivenInflator
from repro.experiments.common import (ExperimentResult, build_machine,
                                      cumulative_rows)
from repro.workloads.montecarlo import MonteCarloTask

__all__ = ["run", "main"]


def run(duration_ms: float = 1_000_000.0, stagger_ms: float = 120_000.0,
        tasks: int = 3, seed: int = 271828,
        sample_every_ms: float = 20_000.0,
        error_scale: float = 1e7) -> ExperimentResult:
    """Reproduce Figure 6: staggered tasks with error^2 ticket funding.

    ``error_scale`` maps relative error to ticket value.  Because the
    error shrinks as 1/sqrt(trials), tickets decay as scale/trials; the
    scale must be large enough that a mature task's ticket stays above
    the floor, or the convergence dynamics flatten out.  Only ratios
    matter (the tasks share the ``mc`` currency), so a large scale is
    free.
    """
    machine = build_machine(seed=seed)
    ledger = machine.ledger
    mc_currency = ledger.create_currency("mc")
    ledger.create_ticket(1000, fund=mc_currency)
    inflator = ErrorDrivenInflator(
        mc_currency, scale=error_scale, exponent=2.0, floor=1e-6
    )

    mc_tasks: List[MonteCarloTask] = []
    for index in range(tasks):
        task = MonteCarloTask(
            f"mc{index}", seed=seed + index * 7919, inflator=inflator
        )
        mc_tasks.append(task)
        start_at = index * stagger_ms

        def spawn(task=task, index=index):
            kernel_task = machine.kernel.create_task(f"mc-task-{index}")
            kernel_task.currency = mc_currency
            machine.kernel.spawn(
                task.body, task.name, task=kernel_task, tickets=error_scale,
                currency=mc_currency,
            )

        if start_at <= 0:
            spawn()
        else:
            machine.engine.call_at(start_at, spawn, label="mc-start")

    machine.run_until(duration_ms)

    result = ExperimentResult(
        name="Figure 6: Monte-Carlo error-driven ticket inflation",
        params={
            "duration_ms": duration_ms,
            "stagger_ms": stagger_ms,
            "tasks": tasks,
            "ticket_rule": "scale * relative_error^2",
        },
    )
    result.rows = cumulative_rows(
        {f"{task.name}_trials": task.counter for task in mc_tasks},
        duration_ms, sample_every_ms)

    m = result.measures
    finals = m["final_trials"] = [task.trials for task in mc_tasks]
    m["estimate"] = [task.estimator.estimate for task in mc_tasks]
    m["spread"] = ((max(finals) - min(finals)) / max(finals)
                   if max(finals) else 0.0)
    for task, estimate in zip(mc_tasks, m["estimate"]):
        result.summary[f"{task.name} final trials"] = task.trials
        result.summary[f"{task.name} estimate"] = (
            f"{estimate:.6f} (pi/4 = 0.785398)"
        )
    result.summary["final spread"] = (
        f"{m['spread']:.3%} (staggered tasks converge toward equal totals)"
    )
    return result


def main() -> None:  # pragma: no cover - CLI convenience
    from repro.metrics.ascii_chart import line_chart

    result = run()
    result.print_report()
    names = [key[:-7] for key in result.rows[0] if key.endswith("_trials")]
    print()
    print(line_chart(
        {
            name: [(r["time_s"], r[f"{name}_trials"]) for r in result.rows]
            for name in names
        },
        title="Figure 6: cumulative Monte-Carlo trials",
        y_label="trials",
    ))


if __name__ == "__main__":  # pragma: no cover
    main()
