#!/usr/bin/env python3
"""Distributed lottery scheduling across cores (§4.2 extension).

Three cores of a sharded run each hold their own lottery.  Six threads
with very unequal funding all start on core 0 — the worst possible
placement.  Without rebalancing, core 0's local lottery can only split
one CPU; with the plan's barrier-time rebalancer (``rebalance_ms``),
per-core ticket totals equalize and every thread converges to its
*global* entitlement.

Run:  python examples/cluster_demo.py
"""

from typing import Optional

from repro.experiments.cluster_fairness import census, fairness_rows
from repro.shard.engine import ShardedEngine
from repro.shard.plan import ShardPlan

FUNDINGS = [800.0, 400.0, 200.0, 100.0, 100.0, 100.0]
DURATION_MS = 200_000.0


def build(rebalance_ms: Optional[float]) -> ShardPlan:
    plan = ShardPlan(seed=909, cores=3, quantum=100.0, epoch_ms=1000.0,
                     rebalance_ms=rebalance_ms)
    for index, funding in enumerate(FUNDINGS):
        plan.add_thread(0, "spin", f"t{index}", tickets=funding,
                        chunk_ms=50.0)
    return plan


def report(title: str, plan: ShardPlan) -> None:
    with ShardedEngine(plan) as engine:
        engine.advance(DURATION_MS)
        threads, cores = census(engine)
    rows = fairness_rows(threads, len(cores), DURATION_MS)
    print(f"== {title} ==")
    print(f"  moves: {sum(core['migrations_out'] for core in cores)}")
    print(f"  {'thread':<6} {'core':<6} {'funding':>8} {'cpu (s)':>8}"
          f" {'entitled':>9} {'error':>7}")
    for row in rows:
        print(f"  {row['thread']:<6} {row['core']:<6}"
              f" {row['funding']:>8.0f} {row['cpu_ms'] / 1000:>8.1f}"
              f" {row['entitled_ms'] / 1000:>9.1f}"
              f" {row['relative_error']:>6.1%}")
    worst = max(row["relative_error"] for row in rows)
    print(f"  worst deviation from global entitlement: {worst:.1%}")
    print()


def main() -> None:
    print("six threads (800/400/200/100/100/100 tickets), all placed on"
          " core 0\n")
    report("static placement (no rebalancing)", build(None))
    report("rebalancing every second", build(1000.0))
    print("with rebalancing, per-core ticket totals equalize, so each")
    print("core's local lottery composes into the global share --")
    print("the distributed scheduler the paper's section 4.2 sketches.")


if __name__ == "__main__":
    main()
