"""Section 6.2: inverse-lottery management of space-shared memory.

The paper proposes revoking physical pages from clients by an *inverse
lottery*: client i loses a page with probability proportional to
(1 - t_i/T) weighted by the fraction of memory it occupies.  This
experiment drives a page-fault stream from clients with unequal ticket
allocations through a small frame pool and compares the observed
per-client eviction shares against the closed-form prediction, plus
ticket-blind baselines (LRU/FIFO/random) that victimize regardless of
funding.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.core.prng import ParkMillerPRNG
from repro.experiments.common import ExperimentResult
from repro.mem.frames import FramePool
from repro.mem.manager import MemoryManager
from repro.mem.policies import (
    InverseLotteryReplacement,
    LRUReplacement,
    RandomReplacement,
)

__all__ = ["run", "main"]


def _drive(manager: MemoryManager, tickets: Dict[str, float],
            references: int, pages_per_client: int,
            prng: ParkMillerPRNG) -> None:
    """Uniform random references from each client round-robin."""
    clients = sorted(tickets)
    for step in range(references):
        client = clients[step % len(clients)]
        page = prng.randrange(pages_per_client)
        manager.reference(client, page, now=float(step))


def run(tickets: Optional[Dict[str, float]] = None, frames: int = 90,
        pages_per_client: int = 60, references: int = 60_000,
        seed: int = 424242) -> ExperimentResult:
    """Reproduce the section 6.2 victim-distribution prediction."""
    if tickets is None:
        tickets = {"A": 300.0, "B": 200.0, "C": 100.0}
    result = ExperimentResult(
        name="Section 6.2: inverse-lottery page replacement",
        params={
            "tickets": dict(tickets),
            "frames": frames,
            "pages_per_client": pages_per_client,
            "references": references,
        },
    )

    # -- inverse lottery -----------------------------------------------------
    pool = FramePool(frames)
    policy = InverseLotteryReplacement(
        tickets_of=lambda c: tickets[c], prng=ParkMillerPRNG(seed)
    )
    manager = MemoryManager(pool, policy)
    _drive(manager, tickets, references, pages_per_client,
           ParkMillerPRNG(seed + 1))

    # Prediction: steady state balances eviction flow against fault
    # flow; with symmetric reference streams the observed eviction
    # share should track (1 - t_i/T) * usage_i (renormalized), where
    # usage is each client's measured mean residency.
    total_tickets = sum(tickets.values())
    usages = {c: pool.usage_fraction(c) for c in tickets}
    weights = {
        c: (1.0 - tickets[c] / total_tickets) * max(usages[c], 1e-9)
        for c in tickets
    }
    weight_sum = sum(weights.values())
    for client in sorted(tickets):
        predicted = weights[client] / weight_sum if weight_sum else 0.0
        result.rows.append(
            {
                "client": client,
                "tickets": tickets[client],
                "evictions": manager.evictions.get(client, 0),
                "observed_share": manager.eviction_share(client),
                "predicted_share": predicted,
                "resident_frames": pool.usage(client),
                "fault_rate": manager.fault_rate(client),
            }
        )
    result.measures["eviction_share"] = {
        row["client"]: row["observed_share"] for row in result.rows}

    # -- ticket-blind baselines ---------------------------------------------------
    for baseline_name, baseline in (
        ("lru", LRUReplacement()),
        ("random", RandomReplacement(ParkMillerPRNG(seed + 2))),
    ):
        base_pool = FramePool(frames)
        base_manager = MemoryManager(base_pool, baseline)
        _drive(base_manager, tickets, references, pages_per_client,
               ParkMillerPRNG(seed + 1))
        shares = result.measures[f"{baseline_name}_eviction_share"] = {
            c: base_manager.eviction_share(c) for c in sorted(tickets)}
        result.summary[f"baseline {baseline_name} eviction shares"] = (
            ", ".join(f"{c}={share:.2f}" for c, share in shares.items())
            + " (ticket-blind: roughly uniform)"
        )

    best_funded = max(tickets, key=tickets.get)
    least_funded = min(tickets, key=tickets.get)
    result.summary["shape check"] = (
        f"{best_funded} (most tickets) loses fewest pages;"
        f" {least_funded} (fewest tickets) loses most"
    )
    return result


def main() -> None:  # pragma: no cover - CLI convenience
    from repro.metrics.ascii_chart import bar_chart

    result = run()
    result.print_report()
    print()
    print(bar_chart(
        {f"{r['client']} ({r['tickets']:.0f}t)": r["observed_share"]
         for r in result.rows},
        title="eviction share by client (more tickets -> fewer losses)",
    ))


if __name__ == "__main__":  # pragma: no cover
    main()
