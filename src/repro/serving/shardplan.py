"""Serving arena on the sharded multicore engine.

``serving_plan`` partitions the arena across cores: each core runs a
complete, core-local service stack -- per-class pumps behind
ticket-priced admission, frontends, a backend pool, and (optionally)
an SLO controller -- with the class
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

from repro.errors import ShardError
from repro.serving.admission import TokenBucket, admission_rates
from repro.serving.slo_controller import SLO_EPOCH_MS, SloController
from repro.serving.tiers import (ARRIVAL_SEED_STRIDE, BACKEND_TICKETS,
                                 DEFAULT_CLASSES, PUMP_TICKETS,
                                 ServingRuntime, backend_body, capacity_rps,
                                 frontend_body, pump_body)
from repro.shard.plan import ShardPlan, finite, integer
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

#: Offered load on every core, as a multiple of its capacity.
LOAD_FACTOR = 1.5
#: Backend pool workers on each core.
CORE_BACKENDS = 2
#: Scheduling quantum of every core (ms).
QUANTUM_MS = 20.0
#: Control windows with fewer wake samples than this leave the levers
#: alone: admission sheds most bronze load at overload, so a core's
#: windows see few bronze dispatches.
SLO_MIN_SAMPLES = 10


def serving_runtime_for(core: "ShardCore") -> ServingRuntime:
    """The core's serving measurement context, created at first use.

    ShardCore is deliberately not slotted and not snapshot-audited, so
    stashing the runtime on it is safe; the latency probe is attached
    to the core kernel's recorder mux exactly once.
    """
    runtime = getattr(core, "serving_runtime", None)
    if runtime is None:
        runtime = core.serving_runtime = ServingRuntime(core.kernel)
    return runtime


# -- body factories (see repro.shard.builders) -------------------------------
#
# Thread args are plan data (JSON), so each factory checks the ones it
# reads and refuses a malformed one by its field name; ``build_body``
# adds the thread's name.


def _count(args: Dict[str, Any], key: str) -> int:
    value = integer(key, args[key])
    if value < 0:
        raise ShardError(f"{key} must be non-negative: {value!r}")
    return value


def _real(args: Dict[str, Any], key: str, positive: bool) -> float:
    value = finite(key, args[key])
    if value < 0 or (positive and value == 0):
        raise ShardError(f"{key} must be "
                         f"{'positive' if positive else 'non-negative'}: "
                         f"{value!r}")
    return value


def build_shard_pump(core: "ShardCore", args: Dict[str, Any]):
    """``serving_pump``: one class's open-loop arrival slice."""
    runtime = serving_runtime_for(core)
    process = make_arrivals(
        str(args["kind"]), int(args["seed"]),
        _real(args, "rate_per_s", True),
        **dict(args.get("params") or {}))
    bucket = TokenBucket(_real(args, "admit_rate_per_s", True),
                         _real(args, "admit_burst", True))
    return pump_body(runtime, str(args["cls"]), process,
                     core.channel(str(args["channel"])),
                     _count(args, "count"), bucket.admit)


def build_shard_frontend(core: "ShardCore", args: Dict[str, Any]):
    """``serving_frontend``: class worker; RPCs the backend channel."""
    runtime = serving_runtime_for(core)
    return frontend_body(
        runtime, str(args["cls"]),
        core.channel(str(args["ingress"])),
        core.channel(str(args["backend"])),
        _real(args, "front_ms", False), _real(args, "back_ms", False),
        _real(args, "transfer_fraction", False))


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
        runtime.probe, epoch_ms=_real(args, "epoch_ms", True),
        min_samples=_count(args, "min_samples"))
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
                 requests_per_class: int = 200,
                 slo: bool = False) -> ShardPlan:
    """Exemplar plan: the serving arena partitioned across ``cores``.

    ``requests_per_class`` is *per core*: each core pumps its own
    derived-seed slice of every class at the single-core offered rate,
    so total offered load scales with the core count exactly as
    capacity does.  A core's barrier epoch is its SLO control epoch.
    """
    plan = ShardPlan(seed=seed, cores=cores, quantum=QUANTUM_MS,
                     epoch_ms=SLO_EPOCH_MS)
    classes = DEFAULT_CLASSES
    core_capacity = capacity_rps(classes)
    admission = admission_rates(
        core_capacity, {spec.name: spec.tickets for spec in classes})
    for core in range(cores):
        backend_channel = f"svc-be-c{core}"
        plan.add_channel(backend_channel, home=core)
        for index, spec in enumerate(classes):
            ingress = f"svc-in-{spec.name}-c{core}"
            plan.add_channel(ingress, home=core)
            admit_rate, admit_burst = admission[spec.name]
            plan.add_thread(
                core, "serving_pump", f"pump:{spec.name}@c{core}",
                PUMP_TICKETS, cls=spec.name, kind=spec.arrival_kind,
                seed=seed + ARRIVAL_SEED_STRIDE * (
                    1 + index + core * len(classes)),
                rate_per_s=LOAD_FACTOR * core_capacity * spec.weight,
                count=requests_per_class,
                channel=ingress, params=dict(spec.arrival_params),
                admit_rate_per_s=admit_rate, admit_burst=admit_burst)
            for worker in range(spec.frontends):
                plan.add_thread(
                    core, "serving_frontend",
                    f"fe:{spec.name}:c{core}w{worker}", spec.tickets,
                    cls=spec.name, ingress=ingress,
                    backend=backend_channel, front_ms=spec.front_ms,
                    back_ms=spec.back_ms, transfer_fraction=1.0)
        for worker in range(CORE_BACKENDS):
            plan.add_thread(core, "serving_backend",
                            f"be:c{core}w{worker}", BACKEND_TICKETS,
                            channel=backend_channel)
        if slo:
            plan.add_thread(
                core, "serving_slo", f"slo:c{core}", PUMP_TICKETS,
                targets={spec.name: spec.target_p99_ms
                         for spec in classes},
                epoch_ms=SLO_EPOCH_MS, min_samples=SLO_MIN_SAMPLES)
    return plan
