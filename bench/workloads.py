"""The five benchmark workloads: fixed sizes, builders, and the checks
each finished run must pass.

Every builder takes the seed and returns a :class:`Built`: one public
call to time (``run``), the virtual horizon to drive it to, and a
``finish`` that -- untimed, after the run -- reads the simulated
outputs back through public accessors and reduces them to an op count,
a sha256 ``sim_digest``, the ``sim_*`` statistics, and a list of
violated invariants.  Nothing here reads the host clock except around
the two set-up stages of the shard workloads, which ``setup_s`` is
later decomposed into.
"""

from __future__ import annotations

import math
import multiprocessing
import os
import time
from dataclasses import dataclass, field, replace
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

from repro.checkpoint.statetree import tree_checksum
from repro.core.prng import ParkMillerPRNG
from repro.core.tickets import Ledger
from repro.experiments.common import build_machine
from repro.kernel.kernel import Kernel
from repro.kernel.syscalls import Compute
from repro.schedulers.lottery_policy import LotteryPolicy
from repro.serving.arena import ArenaConfig, build_arena
from repro.serving.tiers import DEFAULT_CLASSES
from repro.shard.engine import ShardedEngine
from repro.shard.plan import mix_plan, spin_plan
from repro.sim.engine import Engine
from repro.telemetry.probe import Telemetry

__all__ = ["Built", "FULL", "QUICK", "SHARDS", "SHARD_WORKLOADS", "Sizes",
           "WORKLOADS", "build"]

#: Worker processes of the ``mp`` backend: nproc of the reference host.
#: A constant, not an option -- results at another count are another
#: benchmark.
SHARDS = 2


@dataclass(frozen=True)
class Sizes:
    """Every size a workload depends on; one instance per sizing."""

    steady_requests: int      # serve_steady, per class
    overload_requests: int    # serve_overload_obs, per class
    wide_threads: int         # dispatch_wide
    wide_quanta: int
    spin_spinners: int        # shard_spin_mp, per core
    spin_epochs: int
    mix_epochs: int           # shard_mix_obs


#: Reported numbers use these.  One run of a workload is about 1 s on
#: the reference host, so that a 10 s measurement holds a median of
#: several fresh-process runs and the driver's 114 invocations fit its
#: budget.
FULL = Sizes(steady_requests=2_000, overload_requests=3_200,
             wide_threads=10_000, wide_quanta=20_000,
             spin_spinners=500, spin_epochs=500, mix_epochs=250)

#: ~20x shorter horizons; for bench/test_bench.py only.
QUICK = Sizes(steady_requests=100, overload_requests=60,
              wide_threads=1_000, wide_quanta=1_250,
              spin_spinners=40, spin_epochs=25, mix_epochs=12)


@dataclass
class Built:
    """A workload built and ready to run."""

    #: The one public call that is timed; takes a virtual-time horizon.
    #: Looked up when called, so the traced run's wrappers see it.
    run: Callable[[float], Any]
    horizon: float
    #: Reads ops, digest, ``sim_*`` and violations back after the run.
    finish: Callable[[], Dict[str, Any]]
    close: Callable[[], None] = lambda: None
    #: ``run`` accepts only multiples of this (the shard epoch grid).
    grid_ms: Optional[float] = None
    #: Host seconds of the set-up stages timed separately.
    parts: Dict[str, float] = field(default_factory=dict)


def _share_err_sigma(pools: Iterable[Dict[Any, Tuple[float, int]]]) -> float:
    """Largest deviation of a funding group's lottery wins from its
    ticket-proportional expectation, in binomial standard deviations.

    Each pool is ``{group: (tickets, wins)}`` over threads that are all
    runnable at every draw of one kernel, so a group's wins out of the
    pool's ``n`` are Binomial(n, p) with ``p`` its ticket share (paper
    section 2: sigma^2 = n p (1 - p)).
    """
    worst = 0.0
    for pool in pools:
        tickets = sum(t for t, _ in pool.values())
        wins = sum(w for _, w in pool.values())
        for group_tickets, group_wins in pool.values():
            p = group_tickets / tickets
            sigma = math.sqrt(wins * p * (1.0 - p))
            if sigma > 0.0:
                worst = max(worst, abs(group_wins - wins * p) / sigma)
    return worst


def _by_tickets(threads: Iterable[Tuple[float, int]]
                ) -> Dict[float, Tuple[float, int]]:
    """Pool ``(tickets, wins)`` threads into one group per ticket value."""
    pool: Dict[float, Tuple[float, int]] = {}
    for tickets, wins in threads:
        held, won = pool.get(tickets, (0.0, 0))
        pool[tickets] = (held + tickets, won + wins)
    return pool


# -- serve_steady / serve_overload_obs ---------------------------------------


def _serving_in_flight(kernel: Kernel) -> Dict[str, int]:
    """Requests offered and admitted but not completed, per class,
    counted from kernel state alone (independent of ``ServingStats``):
    queued at the class ingress, held by a frontend that is not parked
    in ``Receive`` on it, or held by a pump sleeping until its send."""
    parked = set()
    in_flight: Dict[str, int] = {}
    for port in kernel.ports:
        state = port.snapshot_state()
        if state["name"].startswith("svc:in:"):
            in_flight[state["name"][len("svc:in:"):]] = len(state["queued"])
            parked.update(state["receivers"])
    for thread in kernel.threads:
        role, _, rest = thread.name.partition(":")
        started = thread.alive and thread.dispatches > 0
        if role == "fe" and started and thread.tid not in parked:
            in_flight[rest.split(":")[0]] += 1
        elif role == "pump" and started:
            in_flight[rest] += 1
    return in_flight


def _build_serve(seed: int, requests: int, load: float, slo: bool,
                 hub: bool) -> Built:
    machine = build_machine(seed=seed, quantum=20.0, policy="lottery")
    kernel = machine.kernel
    telemetry = None
    if hub:
        telemetry = Telemetry()
        telemetry.instrument_kernel(kernel, track="serving")
    classes = DEFAULT_CLASSES
    if slo:
        # As experiments/serving_tail: tighten bronze so it breaches at
        # overload and the controller has something to inflate; and
        # min_samples=10 because admission sheds most bronze load.
        classes = tuple(replace(spec, target_p99_ms=40.0)
                        if spec.name == "bronze" else spec
                        for spec in classes)
    config = ArenaConfig(seed=seed, load_factor=load,
                         requests_per_class=requests, classes=classes,
                         slo=slo, slo_min_samples=10)
    arena = build_arena(kernel, config)

    def finish() -> Dict[str, Any]:
        stats = arena.stats
        offered = sum(stats.offered.values())
        completed = sum(stats.completed.values())
        violations = list(kernel.check_dispatch_window())
        in_flight = _serving_in_flight(kernel)
        for name in stats.classes():
            accounted = (stats.shed[name] + stats.completed[name]
                         + in_flight[name])
            if stats.offered[name] != accounted:
                violations.append(
                    f"{name}: offered {stats.offered[name]} != shed "
                    f"{stats.shed[name]} + completed "
                    f"{stats.completed[name]} + in flight "
                    f"{in_flight[name]}")
        return {
            "ops": offered,
            "digest": tree_checksum({
                "rows": arena.rows(),
                "state": arena.snapshot_state(),
                "dispatches": kernel.dispatch_count,
                "events": machine.engine.events_processed,
            }),
            "sim": {
                "sim_goodput_frac": completed / offered,
                "sim_wake_p99_ms_gold": stats.wake["gold"].percentile(99.0),
                "sim_wake_p99_ms_bronze":
                    stats.wake["bronze"].percentile(99.0),
            },
            "violations": violations,
            "counts": {
                "sim.events": machine.engine.events_processed,
                "telemetry.spans.retained":
                    0 if telemetry is None else len(telemetry.tracer),
            },
        }

    return Built(run=lambda until: arena.run(until),
                 horizon=config.horizon_ms(), finish=finish)


def _serve_steady(seed: int, sizes: Sizes, backend: str, sinks: bool) -> Built:
    return _build_serve(seed, sizes.steady_requests, load=0.7, slo=False,
                        hub=False)


def _serve_overload_obs(seed: int, sizes: Sizes, backend: str,
                        sinks: bool) -> Built:
    return _build_serve(seed, sizes.overload_requests, load=1.5, slo=True,
                        hub=sinks)


# -- dispatch_wide -----------------------------------------------------------


def _spinner(ctx):
    while True:
        yield Compute(7.0)


def _dispatch_wide(seed: int, sizes: Sizes, backend: str,
                   sinks: bool) -> Built:
    quantum = 10.0
    engine = Engine()
    ledger = Ledger()
    policy = LotteryPolicy(ledger, prng=ParkMillerPRNG(seed), use_tree=True)
    kernel = Kernel(engine, policy, ledger=ledger, quantum=quantum)
    for index in range(sizes.wide_threads):
        kernel.spawn(_spinner, f"spin{index}", tickets=float(1 + index % 13))

    def finish() -> Dict[str, Any]:
        threads = [(float(1 + index % 13), thread.dispatches)
                   for index, thread in enumerate(kernel.threads)]
        return {
            "ops": kernel.dispatch_count,
            "digest": tree_checksum({
                "threads": [[thread.tid, thread.cpu_time, thread.dispatches]
                            for thread in kernel.threads],
                "prng": policy.prng.state,
                "events": engine.events_processed,
            }),
            "sim": {"sim_share_err_sigma":
                    _share_err_sigma([_by_tickets(threads)])},
            "violations": list(kernel.check_dispatch_window()),
            "counts": {"sim.events": engine.events_processed},
        }

    return Built(run=lambda until: kernel.run_until(until),
                 horizon=sizes.wide_quanta * quantum, finish=finish)


# -- shard_spin_mp / shard_mix_obs -------------------------------------------


def _pin_workers() -> None:
    """One mp worker per CPU.  Left to the scheduler, wake-affine
    placement stacks both workers on the parent's CPU for whole runs:
    the same run then takes 0.7 s or 2.5 s (reference host), which no
    number of repeats averages out.  Placement is the environment's,
    not the program's; with fewer CPUs than workers it is left alone
    (run.py warns)."""
    workers = sorted(multiprocessing.active_children(),
                     key=lambda process: process.name)
    cpus = sorted(os.sched_getaffinity(0))
    if len(cpus) >= len(workers):
        for worker, cpu in zip(workers, cpus):
            os.sched_setaffinity(worker.pid, {cpu})


def _build_shard(make_plan: Callable[[], Any], epochs: int, backend: str,
                 obs: bool,
                 pools: Callable[[Any, Dict[str, int]], List[Dict]]) -> Built:
    started = time.perf_counter()
    plan = make_plan()
    planned = time.perf_counter()
    # The oracle is the unsharded single loop; everything else runs on
    # the reference host's two shards.
    engine = ShardedEngine(plan, shards=1 if backend == "single" else SHARDS,
                           backend=backend, obs=obs)
    _pin_workers()
    spawned = time.perf_counter()

    def finish() -> Dict[str, Any]:
        stream = engine.merged_stream()
        # Under mp this raises if a worker's dispatch window is
        # incoherent (Kernel.snapshot_state audits it); in-process
        # kernels are audited directly below.
        state = engine.snapshot_state()
        kernels = engine.shard_kernels()
        wins = {thread["name"]: thread["dispatches"]
                for core in state["cores"]
                for thread in core["kernel"]["threads"]}
        return {
            "ops": len(stream),
            "digest": tree_checksum({"stream": stream, "state": state}),
            "sim": {"sim_share_err_sigma":
                    _share_err_sigma(pools(plan, wins))},
            "violations": [problem for kernel in kernels
                           for problem in kernel.check_dispatch_window()],
            "counts": {
                "sim.events": sum(core["engine"]["events_processed"]
                                  for core in state["cores"]),
                "telemetry.spans.retained": sum(
                    len(kernel.telemetry.tracer) for kernel in kernels
                    if kernel.telemetry is not None),
            },
        }

    return Built(run=lambda until: engine.advance(until),
                 horizon=epochs * plan.epoch_ms,
                 finish=finish, close=engine.close, grid_ms=plan.epoch_ms,
                 parts={"plan_build_s": planned - started,
                        "plan_calls": len(plan.threads) + len(plan.channels),
                        "engine_spawn_s": spawned - planned})


def _spin_pools(plan: Any, wins: Dict[str, int]) -> List[Dict]:
    """One pool per core: every thread is an always-runnable spinner."""
    return [_by_tickets((spec["tickets"], wins[spec["name"]])
                        for spec in plan.threads_on(core))
            for core in range(plan.cores)]


def _mix_pools(plan: Any, wins: Dict[str, int]) -> List[Dict]:
    """One pool per core over its two spinners: both are in the run
    queue at every draw, so given that one of them wins, which one is
    a Bernoulli trial on their ticket ratio whatever else competes."""
    return [{spec["name"]: (spec["tickets"], wins[spec["name"]])
             for spec in plan.threads_on(core) if spec["body"] == "spin"}
            for core in range(plan.cores)]


def _shard_spin_mp(seed: int, sizes: Sizes, backend: str,
                   sinks: bool) -> Built:
    return _build_shard(
        lambda: spin_plan(seed=seed, cores=4, spinners=sizes.spin_spinners,
                          quantum=10.0, epoch_ms=100.0, use_tree=True),
        sizes.spin_epochs, backend, obs=False, pools=_spin_pools)


def _shard_mix_obs(seed: int, sizes: Sizes, backend: str,
                   sinks: bool) -> Built:
    return _build_shard(lambda: mix_plan(seed, cores=4), sizes.mix_epochs,
                        backend, obs=sinks, pools=_mix_pools)


#: name -> (builder, why).  The order is the order of every report.
WORKLOADS: Dict[str, Tuple[Callable[[int, Sizes, str, bool], Built], str]] = {
    "serve_steady": (
        _serve_steady,
        "serving arena at 0.7x load, every sink off: event queue, "
        "block/wake churn, IPC and ticket transfers do the work; the "
        "lottery draw little (few runnable threads)"),
    "serve_overload_obs": (
        _serve_overload_obs,
        "same arena at 1.5x with SLO inflation and the telemetry hub: "
        "admission sheds, currencies inflate, probe/span/registry sinks "
        "and their retained memory dominate"),
    "dispatch_wide": (
        _dispatch_wide,
        "one kernel, 10000 spinners on the Fenwick-tree lottery (paper "
        "5.1): draw, tree update and funding cache only; no IPC, sink "
        "or shard code -- the bypass for those changes"),
    "shard_spin_mp": (
        _shard_spin_mp,
        "4-core spin plan on 2 mp workers, 100 ms epochs, no cross-core "
        "traffic: pipe round-trip, barrier and merge per thin epoch; "
        "setup_s carries the O(n^2) plan build"),
    "shard_mix_obs": (
        _shard_mix_obs,
        "RPC mix plan on 2 mp workers with obs on: cross-core payloads "
        "due in every 500 ms window and cumulative obs frames riding "
        "every barrier"),
}

#: Workloads whose digest is also checked against the ``single`` oracle.
SHARD_WORKLOADS = ("shard_spin_mp", "shard_mix_obs")


def build(workload: str, seed: int, sizes: Sizes, backend: str = "mp",
          sinks: bool = True) -> Built:
    """Build ``workload``.  ``backend`` (shard workloads only) swaps
    ``mp`` for ``inline`` or the ``single`` oracle; ``sinks=False``
    builds the reference variant with the telemetry hub / obs plane
    off.  Both leave the simulated outputs -- the digest -- unchanged."""
    builder, _ = WORKLOADS[workload]
    return builder(seed, sizes, backend, sinks)
