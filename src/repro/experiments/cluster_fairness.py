"""Extension: distributed lottery scheduling (paper section 4.2's hint).

"Such a tree-based implementation can also be used as the basis of a
distributed lottery scheduler."  This experiment measures how well
independently lottery-scheduled cores of a sharded run honour *global*
ticket proportions, with and without the engine's barrier-time
rebalancer (plan ``rebalance_ms``):

* threads with heterogeneous funding are placed with a deliberately
  **skewed placement** (all the heavy hitters on core 0);
* without rebalancing, a core's local lottery can only divide that
  core's single CPU, so global shares are badly off;
* with the rebalancer, core ticket totals equalize and every thread's
  CPU converges to its global entitlement.

A moved thread is respawned on its new core (restart semantics), so a
thread's CPU is summed over its incarnations, by name.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

from repro.experiments.common import ExperimentResult
from repro.shard.engine import ShardedEngine
from repro.shard.plan import ShardPlan

__all__ = ["census", "entitlements", "fairness_rows", "run", "run_variant",
           "main"]

#: Nominal fundings of the spinners, all placed on core 0.
FUNDINGS = (800.0, 400.0, 200.0, 100.0, 100.0, 100.0)


def entitlements(fundings: Dict[str, float], cpus: int,
                 elapsed_ms: float) -> Dict[str, float]:
    """Water-filling entitlements: a thread can use at most one CPU.

    Funding shares of ``cpus * elapsed_ms`` that would exceed one CPU's
    worth are capped at ``elapsed_ms`` and the surplus is redistributed
    among the uncapped threads, iteratively (progressive filling).
    """
    entitled: Dict[str, float] = {}
    remaining = list(fundings)
    remaining_cpu = elapsed_ms * cpus
    while remaining:
        total = sum(fundings[name] for name in remaining)
        if total <= 0:
            entitled.update((name, 0.0) for name in remaining)
            break
        capped = [name for name in remaining
                  if fundings[name] / total * remaining_cpu
                  > elapsed_ms + 1e-9]
        if not capped:
            entitled.update((name, fundings[name] / total * remaining_cpu)
                            for name in remaining)
            break
        for name in capped:
            entitled[name] = elapsed_ms
            remaining.remove(name)
            remaining_cpu -= elapsed_ms
    return entitled


def census(engine: ShardedEngine
           ) -> Tuple[Dict[str, Dict[str, Any]], List[Dict[str, Any]]]:
    """Per thread name: the core of its live incarnation (None while
    it has none), its plan funding, and its CPU summed over every
    incarnation; plus each core's shard counters (``crashed``,
    ``migrations_out``, ``evacuations``, ``casualties`` ...)."""
    threads: Dict[str, Dict[str, Any]] = {
        spec["name"]: {"core": None, "funding": float(spec["tickets"]),
                       "cpu_ms": 0.0}
        for spec in engine.plan.threads}
    cores = engine.snapshot_state()["cores"]
    for core in cores:
        for thread in core["kernel"]["threads"]:
            row = threads[thread["name"]]
            row["cpu_ms"] += thread["cpu_time"]
            if thread["state"] != "exited":
                row["core"] = core["core"]
    return threads, [core["shard"] for core in cores]


def fairness_rows(threads: Dict[str, Dict[str, Any]], live_cores: int,
                  elapsed_ms: float,
                  baseline: Optional[Dict[str, float]] = None
                  ) -> List[Dict[str, Any]]:
    """Observed vs entitled CPU of every thread with a live
    incarnation, over the ``elapsed_ms`` since ``baseline`` (per-name
    CPU then; none means since the start)."""
    live = {name: row for name, row in threads.items()
            if row["core"] is not None}
    entitled = entitlements({name: row["funding"]
                             for name, row in live.items()},
                            live_cores, elapsed_ms)
    rows = []
    for name, row in live.items():
        cpu_ms = row["cpu_ms"] - (baseline or {}).get(name, 0.0)
        share = entitled[name]
        rows.append({"thread": name, "core": row["core"],
                     "funding": row["funding"], "cpu_ms": cpu_ms,
                     "entitled_ms": share,
                     "relative_error": (abs(cpu_ms - share) / share
                                        if share > 0 else 0.0)})
    return rows


def run_variant(rebalance: bool, duration_ms: float = 200_000.0,
                cores: int = 3, seed: int = 909) -> Dict[str, Any]:
    """One run with worst-case initial placement: per-thread fairness
    rows, their worst relative error, and the moves made."""
    plan = ShardPlan(seed=seed, cores=cores, quantum=100.0, epoch_ms=1000.0,
                     rebalance_ms=1000.0 if rebalance else None)
    for index, funding in enumerate(FUNDINGS):
        plan.add_thread(0, "spin", f"t{index}", tickets=funding,
                        chunk_ms=50.0)
    with ShardedEngine(plan) as engine:
        engine.advance(duration_ms)
        threads, cores = census(engine)
    rows = fairness_rows(threads, sum(not core["crashed"] for core in cores),
                         duration_ms)
    return {"rows": rows,
            "migrations": sum(core["migrations_out"] for core in cores),
            "max_relative_error": max((row["relative_error"]
                                       for row in rows), default=0.0)}


def run(duration_ms: float = 200_000.0, cores: int = 3,
        seed: int = 909) -> ExperimentResult:
    """Global fairness with vs without the barrier-time rebalancer."""
    result = ExperimentResult(
        name="Extension: distributed lottery scheduling",
        params={
            "cores": cores,
            "duration_ms": duration_ms,
            "initial_placement": "all threads on core 0 (worst case)",
        },
    )
    for rebalance in (False, True):
        data = run_variant(rebalance, duration_ms=duration_ms,
                           cores=cores, seed=seed)
        label = "rebalancing" if rebalance else "static placement"
        for row in data["rows"]:
            result.rows.append({**row, "variant": label})
        result.measures[label] = {key: data[key] for key in
                                  ("max_relative_error", "migrations")}
        result.summary[f"max relative error ({label})"] = (
            f"{data['max_relative_error']:.3f}"
        )
        result.summary[f"migrations ({label})"] = data["migrations"]
    return result


def main() -> None:  # pragma: no cover - CLI convenience
    run().print_report()


if __name__ == "__main__":  # pragma: no cover
    main()
