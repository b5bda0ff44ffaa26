"""Section 6.2, end to end: memory tickets protect *runtime*, not just pages.

The inverse-memory experiment (E10) validates the victim-selection
formula in isolation.  This experiment closes the loop through the
kernel: paged threads compute on the CPU and stall on page faults, so
the replacement policy's choices show up as throughput.

Scenario: a funded **worker** with a cache-friendly working set shares
a small frame pool with an unfunded **scanner** that cycles through far
more pages than memory holds (the classic LRU-killer).  Under
ticket-blind LRU the scanner evicts the worker's pages and the worker
stalls constantly; under inverse-lottery replacement the worker's
memory tickets keep its working set resident and its throughput close
to the scanner-free baseline.
"""

from __future__ import annotations

from typing import Dict

from repro.core.prng import ParkMillerPRNG
from repro.experiments.common import ExperimentResult, build_machine
from repro.mem.frames import FramePool
from repro.mem.manager import MemoryManager
from repro.mem.paging import PagedWorkload
from repro.mem.policies import InverseLotteryReplacement, LRUReplacement

__all__ = ["run", "run_variant", "main"]

TICKETS = {"worker": 900.0, "scanner": 100.0}


def run_variant(policy_name: str, duration_ms: float = 120_000.0,
                frames: int = 64, worker_set: int = 48,
                scanner_set: int = 400, seed: int = 515,
                with_scanner: bool = True) -> Dict[str, float]:
    """One run; returns worker/scanner throughput and fault rates."""
    machine = build_machine(seed=seed)
    pool = FramePool(frames)
    if policy_name == "inverse-lottery":
        policy = InverseLotteryReplacement(
            tickets_of=TICKETS.__getitem__, prng=ParkMillerPRNG(seed + 1)
        )
    elif policy_name == "lru":
        policy = LRUReplacement()
    else:
        raise ValueError(f"unknown policy {policy_name!r}")
    manager = MemoryManager(pool, policy)

    # The worker re-touches its set slowly (one page per 20 ms step),
    # so its pages go "cold" by recency standards even though they are
    # its working set.
    worker = PagedWorkload("worker", manager, working_set=worker_set,
                           pattern="uniform", step_ms=20.0,
                           references_per_step=1, seed=seed + 2)
    machine.kernel.spawn(worker.body, "worker",
                         tickets=TICKETS["worker"])
    scanner = None
    if with_scanner:
        # The scanner streams sequentially with cheap read-ahead faults
        # (2 ms), flooding memory faster than the worker re-touches --
        # the classic LRU-killer access pattern.
        scanner = PagedWorkload("scanner", manager,
                                working_set=scanner_set,
                                pattern="sequential", step_ms=2.0,
                                references_per_step=8,
                                fault_service_ms=2.0, seed=seed + 3)
        machine.kernel.spawn(scanner.body, "scanner",
                             tickets=TICKETS["scanner"])
    machine.run_until(duration_ms)
    return {
        "policy": policy_name,
        "worker_steps": worker.steps,
        "worker_fault_rate": manager.fault_rate("worker"),
        "scanner_steps": scanner.steps if scanner else 0.0,
        "scanner_fault_rate": (
            manager.fault_rate("scanner") if scanner else 0.0
        ),
        "worker_resident": pool.usage("worker"),
    }


def run(duration_ms: float = 120_000.0, seed: int = 515) -> ExperimentResult:
    """Worker throughput under memory pressure, per replacement policy."""
    result = ExperimentResult(
        name="Section 6.2 end-to-end: paging policy vs runtime",
        params={
            "duration_ms": duration_ms,
            "frames": 64,
            "worker": "48-page working set, 900 tickets",
            "scanner": "400-page sequential scan, 100 tickets",
        },
    )
    baseline = run_variant("inverse-lottery", duration_ms=duration_ms,
                           seed=seed, with_scanner=False)
    result.summary["worker alone (no pressure)"] = (
        f"{baseline['worker_steps']:.0f} steps"
    )
    for policy in ("inverse-lottery", "lru"):
        row = result.measures[policy] = run_variant(
            policy, duration_ms=duration_ms, seed=seed)
        result.rows.append(row)
        retained = row["worker_steps"] / baseline["worker_steps"]
        result.summary[f"worker throughput retained [{policy}]"] = (
            f"{retained:.1%} (fault rate {row['worker_fault_rate']:.1%},"
            f" {row['worker_resident']:.0f} frames resident)"
        )
    return result


def main() -> None:  # pragma: no cover - CLI convenience
    run().print_report()


if __name__ == "__main__":  # pragma: no cover
    main()
