"""Section 5.6: system overhead, lottery vs. standard timesharing.

The paper compares its unoptimized prototype against unmodified Mach:
three Dhrystones for 200 seconds (lottery 0.8%-2.7% from baseline,
within run-to-run noise) and the database benchmark (five clients, 20
queries each, 1135.5 vs 1155.5 s: lottery 1.7% *faster*), concluding
the overheads are comparable.

The simulator's virtual time is policy-independent by construction, so
the honest analogue of "scheduler overhead" is the **host cost of the
scheduling decisions themselves**, judged in exact work: the Python
calls a dispatch takes under the lottery and under timesharing, counted
by :func:`repro.perf.count_work`.  Wall-clock time per dispatch, from
separate unprofiled runs, is reported and judged by nothing: its ratio
moves by tens of percent between runs on a shared host.
"""

from __future__ import annotations

import time
from typing import Any, Dict, List, Tuple

from repro.errors import ExperimentError
from repro.experiments.common import ExperimentResult, Machine, build_machine
from repro.perf import count_work
from repro.workloads.database import DatabaseClient, DatabaseServer
from repro.workloads.dhrystone import DhrystoneTask

__all__ = ["run", "run_dhrystone_overhead", "run_dhrystone_work",
           "run_database_overhead", "main"]

_POLICIES = ("lottery", "timesharing", "round-robin", "stride")

#: Bound on lottery/timesharing calls a dispatch: reads 1.080 (84.03/77.83,
#: alike on CPython 3.10-3.13); a second walk over ``ListLottery.draw``'s
#: values reads 1.118 by ``map`` and 1.170 by generator, and both fail.
WORK_RATIO_BOUND = 1.10


def _dhrystones(policy: str,
                seed: int) -> Tuple[Machine, List[DhrystoneTask]]:
    machine = build_machine(seed=seed, policy=policy)
    workloads = [DhrystoneTask(f"dhry{i}") for i in range(3)]
    for workload in workloads:
        machine.kernel.spawn(workload.body, workload.name, tickets=100,
                             priority=1)
    return machine, workloads


def _timed(policy: str, machine: Machine, started: float,
           **facts: float) -> Dict[str, Any]:
    """A timed run's row: its facts, then host time per dispatch."""
    elapsed = time.perf_counter() - started
    dispatches = machine.kernel.dispatch_count
    return {"policy": policy, **facts, "dispatches": dispatches,
            "host_seconds": elapsed,
            "us_per_dispatch": elapsed / dispatches * 1e6 if dispatches
            else 0.0}


def run_dhrystone_work(policy: str, duration_ms: float = 30_000.0,
                       seed: int = 99) -> Dict[str, Any]:
    """The Dhrystone run's exact Python work: warmed up for a second,
    then run to ``duration_ms`` under :func:`repro.perf.count_work`.
    A sanitizer hooked in when the kernel was built is no part of the
    policy's work and is detached first."""
    if not duration_ms > 1_000.0:
        raise ExperimentError(
            f"duration_ms must exceed the 1 s warm-up: {duration_ms!r}")
    machine, workloads = _dhrystones(policy, seed)
    machine.kernel.invariant_hooks.clear()
    machine.run_until(1_000.0)
    warm = machine.kernel.dispatch_count
    calls, lines = count_work(machine.run_until, duration_ms, lines=True)
    return {"iterations": sum(w.iterations for w in workloads),
            "dispatches": machine.kernel.dispatch_count - warm,
            "calls": calls, "lines": lines}


def run_dhrystone_overhead(policy: str, duration_ms: float = 200_000.0,
                           seed: int = 99) -> Dict[str, float]:
    """Three concurrent Dhrystones (the paper's first overhead test)."""
    machine, workloads = _dhrystones(policy, seed)
    started = time.perf_counter()
    machine.run_until(duration_ms)
    return _timed(policy, machine, started,
                  iterations=sum(w.iterations for w in workloads))


def run_database_overhead(policy: str, clients: int = 5,
                          queries_each: int = 20,
                          corpus_kb: float = 500.0,
                          seed: int = 99) -> Dict[str, float]:
    """Five clients x 20 queries (the paper's second overhead test)."""
    machine = build_machine(seed=seed, policy=policy)
    server = DatabaseServer(machine.kernel, workers=3, corpus_kb=corpus_kb)
    client_objects = [
        DatabaseClient(machine.kernel, server, f"client{i}", tickets=100,
                       max_queries=queries_each)
        for i in range(clients)
    ]
    started = time.perf_counter()
    # Run until all queries complete (bounded horizon as a backstop).
    t = 0.0
    while t < 4_000_000.0 and not all(c.completed >= queries_each
                                      for c in client_objects):
        t += 50_000.0
        machine.run_until(t)
    return _timed(policy, machine, started,
                  virtual_completion_s=machine.now / 1000.0,
                  queries=sum(c.completed for c in client_objects))


def run(duration_ms: float = 200_000.0, seed: int = 99) -> ExperimentResult:
    """Reproduce the section 5.6 comparison across policies."""
    result = ExperimentResult(
        name="Section 5.6: scheduling overhead (lottery vs baselines)",
        params={"dhrystone_duration_ms": duration_ms},
    )
    for policy in _POLICIES:
        result.rows.append(
            run_dhrystone_overhead(policy, duration_ms=duration_ms, seed=seed))
    rows = {row["policy"]: row for row in result.rows}
    calls = {}
    for policy in ("lottery", "timesharing"):
        work = run_dhrystone_work(policy, duration_ms, seed=seed)
        calls[policy] = sum(work["calls"].values()) / work["dispatches"]
    m = result.measures
    m["work_ratio"] = calls["lottery"] / calls["timesharing"]
    m["iterations_ratio"] = (rows["lottery"]["iterations"]
                             / rows["timesharing"]["iterations"])
    result.summary["lottery/timesharing calls a dispatch"] = (
        f"{m['work_ratio']:.3f}x ({calls['lottery']:.2f} vs"
        f" {calls['timesharing']:.2f}; paper: comparable overheads)")
    host = (rows["lottery"]["us_per_dispatch"]
            / rows["timesharing"]["us_per_dispatch"])
    result.summary["lottery/timesharing dispatch cost"] = (
        f"{host:.2f}x (host time, reported only)")
    for policy in ("lottery", "timesharing"):
        row = run_database_overhead(policy, seed=seed)
        result.summary[f"database bench [{row['policy']}]"] = (
            f"virtual {row['virtual_completion_s']:.1f}s,"
            f" host {row['host_seconds']:.2f}s,"
            f" {row['us_per_dispatch']:.1f}us/dispatch"
        )
    return result


def main() -> None:  # pragma: no cover - CLI convenience
    run().print_report()


if __name__ == "__main__":  # pragma: no cover
    main()
