"""Serving arena on the sharded multicore engine.

``serving_plan`` partitions the arena across cores: each core runs a
complete, core-local service stack -- per-class pumps, frontends, a
backend pool, and (optionally) an SLO controller -- with the class
arrival streams split per core by **derived seeds**, so every core
replays its own decorrelated slice of the offered load and the merged
event stream stays a pure function of the plan (the canonical barrier
order then makes single / inline / mp backends bit-identical, checked
by ``repro.shard verify``).

Channels are homed on their own core, so frontend->backend RPCs keep
full local semantics including ticket transfers; cross-core traffic is
not what this plan measures (the ``mix`` plan covers it).

The body factories below are the ``serving_pump`` /
``serving_frontend`` / ``serving_backend`` / ``serving_slo`` entries of
:data:`repro.shard.builders.BODY_REGISTRY`, imported at first build.  Each
core's mutable measurement context (stats, probe, admission) is a
:class:`~repro.serving.tiers.ServingRuntime` stashed on the
:class:`~repro.shard.core.ShardCore` at first use; it is measurement
state only -- nothing in the core's checksummed state tree reads it.
"""

from __future__ import annotations

from typing import Any, Dict, TYPE_CHECKING

from repro.serving.admission import TokenBucket
from repro.serving.slo_controller import ClassLatencyProbe, SloController
from repro.serving.stats import ServingStats
from repro.serving.tiers import (DEFAULT_CLASSES, ServingRuntime,
                                 backend_body, capacity_rps, frontend_body,
                                 pump_body)
from repro.shard.plan import ShardPlan
from repro.workloads.arrivals import make_arrivals

if TYPE_CHECKING:  # pragma: no cover
    from repro.shard.core import ShardCore

__all__ = [
    "serving_plan",
    "serving_runtime_for",
    "build_shard_pump",
    "build_shard_frontend",
    "build_shard_backend",
    "build_shard_slo",
]

#: Decorrelates a core's per-class arrival streams from each other,
#: from other cores', and from the cores' own scheduling PRNGs
#: (``core_seed = seed + 101 * core``).
_STREAM_SEED_STRIDE = 7919


def serving_runtime_for(core: "ShardCore") -> ServingRuntime:
    """The core's serving measurement context, created at first use.

    ShardCore is deliberately not slotted and not snapshot-audited, so
    stashing the runtime on it is safe; the latency probe is attached
    to the core kernel's recorder mux exactly once.
    """
    runtime = getattr(core, "serving_runtime", None)
    if runtime is None:
        runtime = ServingRuntime(core.kernel, ServingStats())
        probe = ClassLatencyProbe(runtime.stats)
        core.kernel.attach_recorder(probe)
        runtime.probe = probe
        core.serving_runtime = runtime
    return runtime


# -- body factories (see repro.shard.builders) -------------------------------


def build_shard_pump(core: "ShardCore", args: Dict[str, Any]):
    """``serving_pump``: one class's open-loop arrival slice."""
    runtime = serving_runtime_for(core)
    process = make_arrivals(
        str(args["kind"]), int(args["seed"]), float(args["rate_per_s"]),
        **dict(args.get("params") or {}))
    admit = None
    admit_rate = float(args.get("admit_rate_per_s", 0.0))
    if admit_rate > 0:
        bucket = TokenBucket(admit_rate,
                             float(args.get("admit_burst", 1.0)))
        admit = bucket.admit
    return pump_body(runtime, str(args["cls"]), process,
                     core.channel(str(args["channel"])),
                     int(args["count"]), admit)


def build_shard_frontend(core: "ShardCore", args: Dict[str, Any]):
    """``serving_frontend``: class worker; RPCs the backend channel."""
    runtime = serving_runtime_for(core)
    return frontend_body(
        runtime, str(args["cls"]),
        core.channel(str(args["ingress"])),
        core.channel(str(args["backend"])),
        float(args.get("front_ms", 0.5)),
        float(args.get("back_ms", 4.5)),
        float(args.get("transfer_fraction", 1.0)))


def build_shard_backend(core: "ShardCore", args: Dict[str, Any]):
    """``serving_backend``: receive / compute / reply pool worker."""
    return backend_body(core.channel(str(args["channel"])))


def build_shard_slo(core: "ShardCore", args: Dict[str, Any]):
    """``serving_slo``: per-core SLO controller thread.

    Levers are the funding tickets of the core's own frontend threads
    (shard spawns fund in base -- there are no per-class currencies on
    a shard core), resolved by name prefix at the controller's first
    dispatch, after every frontend in the plan has been spawned.
    """
    runtime = serving_runtime_for(core)
    controller = SloController(
        runtime.probe,
        epoch_ms=float(args.get("epoch_ms", 250.0)),
        min_samples=int(args.get("min_samples", 10)))
    targets = {str(name): float(target)
               for name, target in dict(args["targets"]).items()}
    core.serving_slo = controller

    def body(ctx):
        for name in sorted(targets):
            levers = [ticket
                      for thread in core.kernel.threads
                      if thread.alive and thread.name.startswith(
                          f"fe:{name}:")
                      for ticket in thread.tickets]
            controller.add_class(name, targets[name], levers)
        yield from controller.body()(ctx)

    return body


# -- the plan -----------------------------------------------------------------


def serving_plan(seed: int = 2026, cores: int = 2,
                 load_factor: float = 1.5,
                 requests_per_class: int = 200,
                 frontends: int = 2, backends: int = 2,
                 quantum: float = 20.0, epoch_ms: float = 250.0,
                 slo: bool = False,
                 admission: bool = True) -> ShardPlan:
    """Exemplar plan: the serving arena partitioned across ``cores``.

    ``requests_per_class`` is *per core*: each core pumps its own
    derived-seed slice of every class at the single-core offered rate,
    so total offered load scales with the core count exactly as
    capacity does.
    """
    plan = ShardPlan(seed=seed, cores=cores, quantum=quantum,
                     epoch_ms=epoch_ms)
    classes = DEFAULT_CLASSES
    core_capacity = capacity_rps(classes)
    for core in range(cores):
        backend_channel = f"svc-be-c{core}"
        plan.add_channel(backend_channel, home=core)
        for index, spec in enumerate(classes):
            ingress = f"svc-in-{spec.name}-c{core}"
            plan.add_channel(ingress, home=core)
            rate = load_factor * core_capacity * spec.weight
            admit_rate = 0.0
            admit_burst = 1.0
            if admission:
                total = sum(s.tickets for s in classes)
                admit_rate = (core_capacity * 1.2
                              * spec.tickets / total)
                admit_burst = max(1.0, admit_rate * 0.5)
            plan.add_thread(
                core, "serving_pump", f"pump:{spec.name}@c{core}", 50.0,
                cls=spec.name, kind=spec.arrival_kind,
                seed=seed + _STREAM_SEED_STRIDE * (
                    1 + index + core * len(classes)),
                rate_per_s=rate, count=requests_per_class,
                channel=ingress, params=dict(spec.arrival_params),
                admit_rate_per_s=admit_rate, admit_burst=admit_burst)
            for worker in range(frontends):
                plan.add_thread(
                    core, "serving_frontend",
                    f"fe:{spec.name}:c{core}w{worker}", spec.tickets,
                    cls=spec.name, ingress=ingress,
                    backend=backend_channel, front_ms=spec.front_ms,
                    back_ms=spec.back_ms, transfer_fraction=1.0)
        for worker in range(backends):
            plan.add_thread(core, "serving_backend",
                            f"be:c{core}w{worker}", 50.0,
                            channel=backend_channel)
        if slo:
            plan.add_thread(
                core, "serving_slo", f"slo:c{core}", 50.0,
                targets={spec.name: spec.target_p99_ms
                         for spec in classes},
                epoch_ms=epoch_ms, min_samples=10)
    return plan
