"""Chaos experiment: proportional-share fairness under core crashes.

The paper's evaluation (Figures 4 and 9) shows lottery scheduling
tracking ticket ratios on a healthy machine.  This experiment asks the
distributed-extension question: does the guarantee *recover* when cores
crash and rejoin?  A sharded run (:func:`chaos_plan`) spins
heterogeneously funded threads on three cores while scripted plan ops
crash cores and restart them; after every transition we restart the
fairness clock and watch the windowed max relative error reconverge
below a threshold.

Mechanics of recovery being measured:

* a crash kills the pinned victim thread on the dead core -- its
  tickets die with it, so survivors' global shares grow instantly;
* unpinned threads are evacuated (respawned on a surviving core at the
  next barrier), keeping them schedulable;
* a restart returns an empty core, and the barrier-time rebalancer
  repopulates it, re-equalizing per-core ticket totals.

Every source of randomness is a seeded per-core Park-Miller stream and
every cross-core effect a barrier payload, so two runs with the same
seed produce identical fault logs, move counts and fairness rows --
asserted by ``tests/experiments/test_chaos.py``.
"""

from __future__ import annotations

from typing import Any, Dict, List

from repro.experiments.cluster_fairness import census, fairness_rows
from repro.experiments.common import ExperimentResult
from repro.shard.engine import ShardedEngine
from repro.shard.plan import ShardPlan

__all__ = ["chaos_plan", "run", "run_variant", "main"]

#: Reconvergence criterion: windowed max relative error below this.
RECONVERGENCE_THRESHOLD = 0.15

#: Nominal fundings for the unpinned spinners (base units).  Kept
#: fine-grained relative to one core's share of the total (~333) so
#: every core hosts several threads: a core whose sole thread is always
#: running could neither donate nor swap, pinning the rebalancer in a
#: skewed state.
FUNDINGS = (150.0, 150.0, 150.0, 100.0, 100.0, 100.0, 100.0, 80.0, 70.0)

#: (core, time) of each crash; the core restarts RESTART_AFTER_MS later.
#: The first and last crash hit core 1 -- home of the pinned victim on
#: the first hit -- so the schedule exercises both the kill path and
#: the evacuate-and-rebalance path.
CRASHES = ((1, 30_000.0), (2, 100_000.0), (1, 170_000.0))
RESTART_AFTER_MS = 30_000.0


def chaos_plan(seed: int = 2718, cores: int = 3) -> ShardPlan:
    """The chaos universe: spinners dealt round-robin, the pinned
    victim on core 1, 1 s rebalancing on a 500 ms epoch grid (which
    divides every op time, so any op time is a valid stop), and the
    :data:`CRASHES` schedule.  A plan cannot see loads, so every crash
    evacuates to one fixed core, the lowest-numbered other one (the
    rebalancer spreads the evacuees from there); on a single core there
    is none and a crash kills every thread.  Core numbers wrap on
    machines with fewer than three cores."""
    plan = ShardPlan(seed=seed, cores=cores, quantum=20.0, epoch_ms=500.0,
                     rebalance_ms=1000.0)
    for index, funding in enumerate(FUNDINGS):
        plan.add_thread(index % cores, "spin", f"w{index}", tickets=funding,
                        chunk_ms=20.0)
    plan.add_thread(1 % cores, "spin", "victim", tickets=100.0,
                    pinned=True, chunk_ms=20.0)
    for core, at in CRASHES:
        core %= cores
        plan.crash(at, core, evacuate_to=min(
            (other for other in range(cores) if other != core), default=None))
        plan.restart(at + RESTART_AFTER_MS, core)
    return plan


def run_variant(seed: int = 2718, cores: int = 3,
                duration_ms: float = 240_000.0,
                sample_period_ms: float = 5_000.0) -> Dict[str, Any]:
    """One chaos run; returns raw data for tests and :func:`run`.

    The result dict holds the ``plan`` plus: ``rows`` (windowed error
    samples), ``windows`` (one record per fairness window with its
    reconvergence time), ``fault_log`` (one line per op, with what it
    did), ``counters`` (crashes, restarts, evacuations, casualties,
    migrations), ``crashed_cores`` (in order) and the final window error.
    """
    plan = chaos_plan(seed=seed, cores=cores)
    transitions = {op["at"]: op for op in plan.ops if op["at"] < duration_ms}
    samples = [k * sample_period_ms
               for k in range(1, int(duration_ms / sample_period_ms) + 1)]
    checkpoints = sorted(set(samples) | set(transitions) | {duration_ms})

    rows: List[Dict[str, Any]] = []
    windows: List[Dict[str, Any]] = [
        {"start_ms": 0.0, "cause": "start", "reconverged_at_ms": None}
    ]
    fault_log: List[str] = []
    counters = {"crashes": 0, "restarts": 0}
    crashed_cores: List[int] = []
    with ShardedEngine(plan) as engine:
        threads, before = census(engine)
        baseline = {name: row["cpu_ms"] for name, row in threads.items()}
        for checkpoint in checkpoints:
            engine.advance(checkpoint)
            threads, after = census(engine)
            if checkpoint in transitions:
                op = transitions[checkpoint]
                core = op["core"]
                was, now = before[core]["crashed"], after[core]["crashed"]
                if op["op"] == "crash" and now and not was:
                    counters["crashes"] += 1
                    crashed_cores.append(core)
                    detail = " ".join(
                        f"{key}={after[core][key] - before[core][key]}"
                        for key in ("evacuations", "casualties"))
                elif op["op"] == "restart" and was and not now:
                    counters["restarts"] += 1
                    detail = "rejoined"
                else:
                    detail = "skipped"
                cause = f"{op['op']} core{core}"
                fault_log.append(f"t={checkpoint:g} {cause} [{detail}]")
                windows.append({"start_ms": checkpoint, "cause": cause,
                                "reconverged_at_ms": None})
                baseline = {name: row["cpu_ms"]
                            for name, row in threads.items()}
            else:
                window = windows[-1]
                elapsed = checkpoint - window["start_ms"]
                live_cores = sum(not shard["crashed"] for shard in after)
                error = max((row["relative_error"] for row in fairness_rows(
                    threads, live_cores, elapsed, baseline)), default=0.0)
                rows.append({
                    "t_ms": checkpoint,
                    "window_start_ms": window["start_ms"],
                    "live_cores": live_cores,
                    "max_rel_err": error,
                })
                if (window["reconverged_at_ms"] is None
                        and error < RECONVERGENCE_THRESHOLD):
                    window["reconverged_at_ms"] = checkpoint
            before = after
    for key in ("evacuations", "casualties", "migrations_out"):
        counters[key] = sum(shard[key] for shard in before)
    return {
        "plan": plan,
        "rows": rows,
        "windows": windows,
        "fault_log": fault_log,
        "counters": counters,
        "crashed_cores": crashed_cores,
        "final_error": rows[-1]["max_rel_err"] if rows else 0.0,
    }


def run(seed: int = 2718, cores: int = 3, duration_ms: float = 240_000.0,
        sample_period_ms: float = 5_000.0) -> ExperimentResult:
    """Fairness reconvergence under a scripted crash/restart schedule."""
    data = run_variant(seed=seed, cores=cores, duration_ms=duration_ms,
                       sample_period_ms=sample_period_ms)
    counters = data["counters"]
    result = ExperimentResult(
        name="Chaos: fairness reconvergence under core crashes",
        params={
            "cores": cores,
            "duration_ms": duration_ms,
            "sample_period_ms": sample_period_ms,
            "threshold": RECONVERGENCE_THRESHOLD,
            "plan": data["plan"].checksum()[:16],
        },
    )
    result.rows = list(data["rows"])
    m = result.measures
    m.update(counters, crashed_cores=data["crashed_cores"],
             final_error=data["final_error"], reconverged_after_ms={})
    for line in data["fault_log"]:
        result.summary.setdefault("faults applied", []).append(line)
    for window in data["windows"]:
        if window["cause"] == "start":
            # The warmup window measures cold-start settling, not fault
            # recovery; reconvergence is only claimed for fault windows.
            continue
        label = f"window @{window['start_ms']:g}ms ({window['cause']})"
        reconverged = window["reconverged_at_ms"]
        after = m["reconverged_after_ms"][label] = (
            None if reconverged is None else reconverged - window["start_ms"])
        result.summary[label] = ("did not reconverge" if after is None
                                 else f"reconverged after {after:g} ms")
    result.summary["migrations"] = counters["migrations_out"]
    result.summary["evacuations"] = counters["evacuations"]
    result.summary["casualties"] = counters["casualties"]
    result.summary["core crashes/restarts"] = (
        f"{counters['crashes']}/{counters['restarts']}"
    )
    result.summary["final window max relative error"] = (
        f"{m['final_error']:.3f}"
    )
    return result


def main() -> None:  # pragma: no cover - CLI convenience
    run().print_report()


if __name__ == "__main__":  # pragma: no cover
    main()
