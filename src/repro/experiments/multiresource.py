"""Section 6.3 extension: manager threads balancing multiple resources.

The paper's future-work section asks: with CPU *and* I/O bandwidth both
priced in tickets, "when does it make sense to shift funding from one
resource to another?" and proposes per-application **manager threads**
holding a small fixed share of the application's funding.

This experiment builds the scenario: a pipeline application (each item
needs a disk read, then CPU work) competes against a disk-hungry rival
and a CPU-hungry rival.  Its workload shifts mid-run from disk-bound to
CPU-bound.  We compare:

* **static** splits of the application's budget between CPU tickets and
  disk tickets (50/50, and each phase's ideal split -- which is wrong
  for the other phase), against
* the **bottleneck manager** (:mod:`repro.core.multiresource`), which
  senses where the application is waiting and re-funds accordingly.

The reproduction claim: the manager tracks the phase change and matches
or beats every static split on total items completed.
"""

from __future__ import annotations

from typing import Any, Dict, Generator

from repro.core.multiresource import BottleneckManager, ResourceBudget
from repro.core.prng import ParkMillerPRNG
from repro.experiments.common import ExperimentResult, build_machine
from repro.iosched.disk import Disk, LOTTERY
from repro.kernel.ipc import Port
from repro.kernel.syscalls import Compute, Receive, Syscall

__all__ = ["run", "run_variant", "main"]


def run_variant(
    policy: str,
    duration_ms: float = 400_000.0,
    budget_total: float = 1000.0,
    seed: int = 4242,
    manager_period_ms: float = 2_000.0,
) -> Dict[str, Any]:
    """One run; ``policy`` is 'manager', 'static-50', 'static-disk',
    or 'static-cpu'.  Returns items completed plus diagnostics."""
    machine = build_machine(seed=seed)
    kernel = machine.kernel
    disk = Disk(machine.engine, scheduler=LOTTERY,
                prng=ParkMillerPRNG(seed + 1))

    # -- rivals: keep both resources congested -----------------------------
    def disk_rival_pump(request=None):
        disk.submit("rival", rival_prng.randrange(10_000), 128,
                    on_complete=disk_rival_pump)

    rival_prng = ParkMillerPRNG(seed + 2)
    for _ in range(4):
        disk_rival_pump()
    disk.set_tickets("rival", 500.0)

    def cpu_rival(ctx):
        while True:
            yield Compute(100.0)

    kernel.spawn(cpu_rival, "cpu-rival", tickets=500)

    # -- the pipeline application ------------------------------------------
    io_done = Port(kernel, "io-done")
    # Wait accounting must include the *in-progress* wait, or a starved
    # application reports zero pressure (it never completes an item) and
    # the manager freezes on stale weights.
    stats = {
        "items": 0,
        "io_wait": 0.0,
        "cpu_wait": 0.0,
        "waiting_on": None,  # "disk" | "cpu" | None
        "since": 0.0,
        "baseline": 0.0,  # unloaded cost of the phase in progress
    }
    app_prng = ParkMillerPRNG(seed + 3)
    switch_at = duration_ms / 2.0

    def unloaded_disk_ms(io_kb: float) -> float:
        return disk.rotational_ms + io_kb / disk.transfer_kb_per_ms

    def app_body(ctx) -> Generator[Syscall, Any, None]:
        while True:
            # Phase 1: disk-bound items; phase 2: CPU-bound items.
            if ctx.now < switch_at:
                io_kb, cpu_ms = 256.0, 5.0
            else:
                io_kb, cpu_ms = 16.0, 80.0
            stats["waiting_on"] = "disk"
            stats["since"] = ctx.now
            stats["baseline"] = unloaded_disk_ms(io_kb)

            def io_complete(request, cpu_ms=cpu_ms):
                # Attribute disk contention from the disk's own view
                # (submit -> complete); everything from here until the
                # compute finishes is CPU wait.  Billing the wake-up
                # latency to the disk would create a positive feedback
                # loop: CPU starvation would read as disk pressure.
                stats["io_wait"] += max(
                    request.response_time - stats["baseline"], 0.0
                )
                stats["waiting_on"] = "cpu"
                stats["since"] = request.completed_at
                stats["baseline"] = cpu_ms
                io_done.send(None, "done")

            disk.submit("app", app_prng.randrange(10_000), io_kb,
                        on_complete=io_complete)
            yield Receive(io_done)
            yield Compute(cpu_ms)
            queueing = max(ctx.now - stats["since"] - cpu_ms, 0.0)
            stats["cpu_wait"] += queueing
            stats["waiting_on"] = None
            stats["items"] += 1

    app_thread = kernel.spawn(app_body, "app", tickets=1.0)
    app_ticket = app_thread.tickets[0]

    # -- budget wiring -------------------------------------------------------
    budget = ResourceBudget(budget_total, manager_share=0.01)
    budget.attach("cpu", app_ticket.set_amount)
    budget.attach("disk", lambda amount: disk.set_tickets("app", amount))

    manager_decisions = 0
    if policy == "manager":
        def sense(kind: str, resource: str):
            def sensor() -> float:
                value = stats[kind]
                stats[kind] = 0.0  # window reset per decision
                if stats["waiting_on"] == resource:
                    # Include the wait in progress (minus the unloaded
                    # baseline), so starvation is visible immediately.
                    value += max(
                        machine.engine.now - stats["since"]
                        - stats["baseline"],
                        0.0,
                    )
                return value

            return sensor

        manager = BottleneckManager(
            budget,
            sensors={"cpu": sense("cpu_wait", "cpu"),
                     "disk": sense("io_wait", "disk")},
            period_ms=manager_period_ms,
        )
        kernel.spawn(manager.body, "manager",
                     tickets=budget.manager_funding)
        budget.rebalance({"cpu": 1.0, "disk": 1.0}, now=0.0)
    else:
        weights = {
            "static-50": {"cpu": 1.0, "disk": 1.0},
            "static-disk": {"cpu": 0.15, "disk": 0.85},
            "static-cpu": {"cpu": 0.85, "disk": 0.15},
        }[policy]
        budget.rebalance(weights, now=0.0)

    machine.run_until(duration_ms)
    if policy == "manager":
        manager_decisions = manager.decisions
    return {
        "policy": policy,
        "items": stats["items"],
        "rebalances": len(budget.history),
        "manager_decisions": manager_decisions,
        "final_allocation": budget.allocations(),
    }


def run(duration_ms: float = 400_000.0, seed: int = 4242) -> ExperimentResult:
    """Compare the manager against static splits across the phase shift."""
    result = ExperimentResult(
        name="Section 6.3: multi-resource manager threads",
        params={
            "duration_ms": duration_ms,
            "phases": "disk-bound -> CPU-bound at T/2",
            "budget": 1000.0,
        },
    )
    outcomes = {}
    for policy in ("static-50", "static-disk", "static-cpu", "manager"):
        outcome = run_variant(policy, duration_ms=duration_ms, seed=seed)
        outcomes[policy] = outcome
        result.rows.append(
            {
                "policy": policy,
                "items": outcome["items"],
                "rebalances": outcome["rebalances"],
            }
        )
    m = result.measures
    items = m["items"] = {policy: outcome["items"]
                          for policy, outcome in outcomes.items()}
    best_static = m["best_static_items"] = max(
        items[p] for p in ("static-50", "static-disk", "static-cpu"))
    m["manager_gain"] = items["manager"] / best_static
    final = m["final_split"] = outcomes["manager"]["final_allocation"]
    result.summary["manager items"] = items["manager"]
    result.summary["best static items"] = best_static
    result.summary["manager vs best static"] = f"{m['manager_gain']:.2f}x"
    result.summary["manager final split"] = (
        f"cpu={final['cpu']:.0f}, disk={final['disk']:.0f}"
        " (tracked the CPU-bound phase)"
    )
    return result


def main() -> None:  # pragma: no cover - CLI convenience
    from repro.metrics.ascii_chart import bar_chart

    result = run()
    result.print_report()
    print()
    print(bar_chart(
        {row["policy"]: float(row["items"]) for row in result.rows},
        title="items completed per funding policy",
    ))


if __name__ == "__main__":  # pragma: no cover
    main()
