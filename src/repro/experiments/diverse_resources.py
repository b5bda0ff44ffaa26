"""Section 6 generalizations: lottery-scheduled disk and network links.

The paper argues lotteries can manage any queued resource, naming disk
bandwidth (footnote 7) and ATM virtual circuits explicitly.  This
experiment saturates a simulated disk and a congested link with
competing clients at unequal ticket allocations and checks that
delivered bandwidth tracks tickets, while the round-robin/FIFO
baselines split it evenly.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.core.prng import ParkMillerPRNG
from repro.experiments.common import ExperimentResult
from repro.iosched.disk import Disk, FIFO, LOTTERY, ROUND_ROBIN
from repro.iosched.netport import LinkScheduler
from repro.sim.engine import Engine

__all__ = ["run", "run_disk", "run_link", "main"]


def run_disk(tickets: Optional[Dict[str, float]] = None,
             requests_per_client: int = 2_000, scheduler: str = LOTTERY,
             seed: int = 11) -> Dict[str, float]:
    """Saturate the disk with per-client backlogs; return KB shares."""
    if tickets is None:
        tickets = {"A": 300.0, "B": 100.0}
    engine = Engine()
    disk = Disk(engine, scheduler=scheduler, tickets=tickets,
                prng=ParkMillerPRNG(seed))
    workload_prng = ParkMillerPRNG(seed + 1)
    for client in sorted(tickets):
        for _ in range(requests_per_client):
            disk.submit(client, workload_prng.randrange(10_000), size_kb=64)
    # Measure shares while every client stays backlogged: run long
    # enough to serve roughly 40% of the submitted work, then stop
    # (running to completion would trivially serve everyone equally).
    mean_service = disk.rotational_ms + 64 / disk.transfer_kb_per_ms + 10.0
    horizon = 0.4 * requests_per_client * len(tickets) * mean_service
    engine.run(until=horizon)
    total = sum(disk.throughput_kb(c) for c in tickets) or 1.0
    shares = {c: disk.throughput_kb(c) / total for c in tickets}
    shares["_mean_response_gap"] = (
        disk.mean_response_time(min(tickets, key=tickets.get))
        / max(disk.mean_response_time(max(tickets, key=tickets.get)), 1e-9)
    )
    return shares


def run_link(tickets: Optional[Dict[str, float]] = None,
             cells_per_circuit: int = 50_000, mode: str = "lottery",
             seed: int = 12) -> Dict[str, float]:
    """Congest one link with backlogged circuits; return cell shares."""
    if tickets is None:
        tickets = {"X": 400.0, "Y": 200.0, "Z": 100.0}
    engine = Engine()
    link = LinkScheduler(engine, cell_time=0.01, mode=mode,
                         queue_limit=cells_per_circuit,
                         prng=ParkMillerPRNG(seed))
    for name, amount in sorted(tickets.items()):
        link.open_circuit(name, amount)
    for name in sorted(tickets):
        link.arrive(name, cells_per_circuit)
    # Measure shares while every circuit stays backlogged: serve ~40%
    # of the total offered cells, then stop.
    horizon = link.cell_time * cells_per_circuit * len(tickets) * 0.4
    engine.run(until=horizon)
    return link.shares()


def run(seed: int = 2024) -> ExperimentResult:
    """Disk 3:1 and link 4:2:1 shares, lottery vs ticket-blind baselines."""
    result = ExperimentResult(
        name="Section 6: lottery-scheduled disk and virtual circuits",
        params={"disk_allocation": "A:B = 3:1", "link_allocation": "X:Y:Z = 4:2:1"},
    )
    disk_lottery = run_disk(scheduler=LOTTERY, seed=seed)
    disk_rr = run_disk(scheduler=ROUND_ROBIN, seed=seed)
    disk_fifo = run_disk(scheduler=FIFO, seed=seed)
    for name, shares in (("lottery", disk_lottery), ("round-robin", disk_rr),
                         ("fifo", disk_fifo)):
        result.rows.append(
            {
                "resource": "disk",
                "scheduler": name,
                "A_share": shares["A"],
                "B_share": shares["B"],
            }
        )
    link_lottery = run_link(mode="lottery", seed=seed + 1)
    link_rr = run_link(mode="round-robin", seed=seed + 1)
    for name, shares in (("lottery", link_lottery), ("round-robin", link_rr)):
        result.rows.append(
            {
                "resource": "link",
                "scheduler": name,
                "X_share": shares.get("X", 0.0),
                "Y_share": shares.get("Y", 0.0),
                "Z_share": shares.get("Z", 0.0),
            }
        )
    m = result.measures
    m["disk_ratio"] = disk_lottery["A"] / max(disk_lottery["B"], 1e-9)
    m["link_ratio"] = [link_lottery[name] / max(link_lottery["Z"], 1e-9)
                       for name in "XY"]
    result.summary["disk lottery A:B"] = (
        f"{m['disk_ratio']:.2f} : 1"
        " (allocated 3 : 1; round-robin gives ~1 : 1)"
    )
    result.summary["link lottery X:Y:Z"] = (
        f"{m['link_ratio'][0]:.2f} : {m['link_ratio'][1]:.2f} : 1"
        " (allocated 4 : 2 : 1)"
    )
    return result


def main() -> None:  # pragma: no cover - CLI convenience
    run().print_report()


if __name__ == "__main__":  # pragma: no cover
    main()
