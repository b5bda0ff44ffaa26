"""Figure 11: lottery-scheduled mutex waiting times (paper section 6.1).

Eight threads compete for one lottery-scheduled mutex; each repeatedly
acquires it, holds it for 50 ms, releases it, and computes for another
50 ms.  The threads form two groups, A and B, with per-thread funding
in ratio A : B = 2 : 1.  Over a two-minute run the paper measured 763
vs 423 acquisitions (1.80 : 1) and mean waits of 450 vs 948 ms
(1 : 2.11) -- both tracking the 2:1 allocation.
"""

from __future__ import annotations

from typing import List

from repro.core.prng import ParkMillerPRNG
from repro.experiments.common import ExperimentResult, build_machine
from repro.metrics.histogram import Histogram
from repro.metrics.stats import mean, stdev
from repro.sync.mutex import LotteryMutex
from repro.workloads.synthetic import MutexContender

__all__ = ["run", "main"]


def run(duration_ms: float = 120_000.0, group_size: int = 4,
        hold_ms: float = 50.0, compute_ms: float = 50.0,
        funding=(2.0, 1.0), unit: float = 100.0, seed: int = 6161,
        histogram_bin_ms: float = 250.0) -> ExperimentResult:
    """Reproduce Figure 11: group A:B = 2:1 mutex contention."""
    machine = build_machine(seed=seed)
    mutex = LotteryMutex(
        machine.kernel, "experiment-lock", prng=ParkMillerPRNG(seed + 1)
    )
    groups: List[List] = [[], []]
    for group_index, group_name in enumerate("AB"):
        for member in range(group_size):
            name = f"{group_name}{member + 1}"
            contender = MutexContender(
                name, mutex, hold_ms=hold_ms, compute_ms=compute_ms,
                seed=seed + 31 * group_index + member,
            )
            thread = machine.kernel.spawn(
                contender.body, name,
                tickets=funding[group_index] * unit,
            )
            groups[group_index].append((contender, thread))
    machine.run_until(duration_ms)

    result = ExperimentResult(
        name="Figure 11: lottery-scheduled mutex (A:B = 2:1)",
        params={
            "duration_ms": duration_ms,
            "threads": group_size * 2,
            "hold_ms": hold_ms,
            "compute_ms": compute_ms,
            "funding": f"{funding[0]:g}:{funding[1]:g}",
        },
    )

    acquisitions = []
    waits = []
    histograms = []
    for group_index, group_name in enumerate("AB"):
        group_acquired = 0
        histogram = Histogram(histogram_bin_ms, name=f"group-{group_name}")
        group_waits: List[float] = []
        for _, thread in groups[group_index]:
            group_acquired += mutex.acquisitions.get(thread.tid, 0)
            group_waits += mutex.waiting_times.get(thread.tid, [])
        for wait in group_waits:
            histogram.record(wait)
        acquisitions.append(group_acquired)
        waits.append(mean(group_waits))
        histograms.append(histogram)
        result.summary[f"group {group_name} acquisitions"] = group_acquired
        result.summary[f"group {group_name} mean wait (ms)"] = (
            f"{waits[-1]:.0f} (sd {stdev(group_waits):.0f})"
        )

    for histogram in histograms:
        for start, end, count in histogram.bins():
            result.rows.append(
                {
                    "group": histogram.name,
                    "wait_bin_ms": f"{start:.0f}-{end:.0f}",
                    "count": count,
                }
            )

    m = result.measures
    if acquisitions[1]:
        m["acquisition_ratio"] = acquisitions[0] / acquisitions[1]
        result.summary["acquisition ratio A:B"] = (
            f"{m['acquisition_ratio']:.2f} : 1 (paper: 1.80 : 1)"
        )
    if waits[0]:
        m["wait_ratio"] = waits[1] / waits[0]
        result.summary["waiting time ratio A:B"] = (
            f"1 : {m['wait_ratio']:.2f} (paper: 1 : 2.11)"
        )
    m["release_lotteries"] = mutex.release_lotteries
    result.summary["release lotteries"] = m["release_lotteries"]
    return result


def main() -> None:  # pragma: no cover - CLI convenience
    run().print_report()


if __name__ == "__main__":  # pragma: no cover
    main()
