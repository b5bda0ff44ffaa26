"""Multi-tier serving topology: pumps -> frontends -> backends.

Three thread roles per the ROADMAP's heavy-traffic scenario:

* **pump** (one per service class) -- replays an open-loop arrival
  process (:mod:`repro.workloads.arrivals`): sleeps until each
  request's scheduled instant, consults admission, and ``Send``s the
  admitted request to the class ingress port.  Pumps never wait for
  completions, so offered load is independent of service rate.
* **frontend** (per class, funded in the class currency) -- receives
  from the ingress, does a little parsing work, then ``Call``s the
  shared backend port with a **ticket transfer**, so backend workers
  compute with the *client's* funding (paper section 4.6).  On reply
  it records end-to-end latency against the request's scheduled
  arrival instant -- queueing delay anywhere in the pipeline is
  measured, not hidden.
* **backend** (shared pool) -- receive / compute / reply.

Bodies are plain generator factories usable both by the single-kernel
arena (:mod:`repro.serving.arena`) and, via the registered shard
builders, inside :class:`~repro.shard.core.ShardCore` workers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Callable, Tuple, TYPE_CHECKING

from repro.errors import ReproError
from repro.kernel.syscalls import Call, Compute, Receive, Reply, Send, Sleep
from repro.serving.slo_controller import ClassLatencyProbe
from repro.serving.stats import ServingStats
from repro.workloads.arrivals import ArrivalProcess

if TYPE_CHECKING:  # pragma: no cover
    from repro.kernel.kernel import Kernel

__all__ = [
    "ServiceClassSpec",
    "DEFAULT_CLASSES",
    "capacity_rps",
    "ServingRuntime",
    "pump_body",
    "frontend_body",
    "backend_body",
]


@dataclass(frozen=True)
class ServiceClassSpec:
    """Static description of one service class.

    ``weight`` is the class's fraction of the total offered request
    rate; ``tickets`` its funding (and thus its CPU share and its
    admission price).  ``arrival_params`` is a tuple of (key, value)
    pairs forwarded to the arrival-process constructor (tuple, not
    dict, to keep the spec hashable and JSON-stable).
    """

    name: str
    tickets: float
    weight: float
    arrival_kind: str
    front_ms: float
    back_ms: float
    target_p99_ms: float
    frontends: int = 2
    arrival_params: Tuple[Tuple[str, Any], ...] = ()

    def __post_init__(self) -> None:
        def refuse(field: str, rule: str) -> None:
            raise ReproError(f"service class {self.name!r}: {field} must "
                             f"be {rule}: {getattr(self, field)!r}")

        def check(field: str, positive: bool) -> None:
            value = getattr(self, field)
            # ``nan < inf`` is false, so NaN fails too.
            if not (isinstance(value, (int, float)) and value < math.inf
                    and (value > 0 if positive else value >= 0)):
                refuse(field, "finite and positive" if positive
                       else "finite and non-negative")

        for field in ("tickets", "weight", "target_p99_ms"):
            check(field, True)
        check("front_ms", False)
        check("back_ms", False)
        frontends = self.frontends
        if not (isinstance(frontends, int) and not isinstance(frontends, bool)
                and frontends >= 1):
            refuse("frontends", "a positive int")

    def request_cpu_ms(self) -> float:
        """CPU milliseconds one request of this class consumes."""
        return self.front_ms + self.back_ms


#: The arena's stock three-class mix -- gold/silver/bronze at 4:2:1
#: funding (the paper's canonical ratios), each on a different arrival
#: model so every generator kind is exercised under load.
DEFAULT_CLASSES: Tuple[ServiceClassSpec, ...] = (
    ServiceClassSpec(
        name="gold", tickets=400.0, weight=0.25,
        arrival_kind="poisson", front_ms=0.5, back_ms=4.5,
        target_p99_ms=60.0),
    ServiceClassSpec(
        name="silver", tickets=200.0, weight=0.35,
        arrival_kind="mmpp", front_ms=0.5, back_ms=4.5,
        target_p99_ms=120.0,
        arrival_params=(("burst_factor", 4.0),
                        ("mean_dwell_ms", 1_000.0))),
    ServiceClassSpec(
        name="bronze", tickets=100.0, weight=0.40,
        arrival_kind="diurnal", front_ms=0.5, back_ms=4.5,
        target_p99_ms=240.0,
        arrival_params=(("period_ms", 4_000.0), ("amplitude", 0.6))),
)


#: Base funding of the tier threads: every arrival pump (and the SLO
#: controller) and every backend worker hold this many base tickets; a
#: single-kernel frontend holds ``FRONTEND_TICKETS`` in its class
#: currency.  The arena and the sharded plan read the same values.
PUMP_TICKETS = 50.0
BACKEND_TICKETS = 50.0
FRONTEND_TICKETS = 100.0

#: Per-class arrival streams are decorrelated from each other, from
#: other cores' and from the kernels' own seeds by this prime stride.
ARRIVAL_SEED_STRIDE = 7919


def capacity_rps(classes: Tuple[ServiceClassSpec, ...] = DEFAULT_CLASSES,
                 cores: int = 1) -> float:
    """Sustainable requests/second: CPU budget over mean request cost.

    The simulated CPU supplies 1000 ms of compute per second per core;
    the mean request costs the weight-averaged per-class CPU time.
    Offered loads in the experiment are expressed as multiples of this.
    """
    mean_cost_ms = sum(spec.weight * spec.request_cpu_ms()
                       for spec in classes)
    total_weight = sum(spec.weight for spec in classes)
    return 1000.0 * cores * total_weight / mean_cost_ms


class ServingRuntime:
    """Shared mutable context the tier bodies record into.

    One per kernel (the arena's, or one per shard core), with the
    class latency probe attached to that kernel's recorder and folding
    into these stats.  Completion recording also forwards to an
    attached telemetry hub's ``on_request_complete`` so the class-keyed
    end-to-end histogram (``repro_request_e2e_ms``) fills without the
    arena depending on telemetry being present.
    """

    def __init__(self, kernel: "Kernel") -> None:
        self.kernel = kernel
        self.stats = ServingStats()
        self.probe = ClassLatencyProbe(self.stats)
        kernel.attach_recorder(self.probe)

    def complete(self, service_class: str, e2e_ms: float) -> None:
        self.stats.record_completion(service_class, e2e_ms)
        telemetry = getattr(self.kernel, "telemetry", None)
        if telemetry is not None:
            telemetry.on_request_complete(
                self.kernel, service_class, e2e_ms)


def pump_body(runtime: ServingRuntime, service_class: str,
              process: ArrivalProcess, ingress: Any, count: int,
              admit: Callable[[float], bool]):
    """Open-loop arrival pump for one class: replay, shed, send.

    ``admit`` is called with each request's *scheduled* arrival
    instant (not the pump's dispatch time), so shedding is a pure
    function of the arrival trace.  The ingress message carries that
    instant; end-to-end latency is measured against it, which charges
    any pump scheduling delay to the system under test.
    """

    def body(ctx):
        for _ in range(count):
            scheduled_ms = process.next_arrival_ms()
            runtime.stats.record_offered(service_class)
            if not admit(scheduled_ms):
                runtime.stats.record_shed(service_class)
                continue
            wait = scheduled_ms - ctx.now
            if wait > 0:
                yield Sleep(wait)
            yield Send(ingress, (service_class, scheduled_ms))

    return body


def frontend_body(runtime: ServingRuntime, service_class: str,
                  ingress: Any, backend: Any, front_ms: float,
                  back_ms: float, transfer_fraction: float = 1.0):
    """Frontend worker: receive, parse, RPC the backend, record e2e."""

    def body(ctx):
        while True:
            request = yield Receive(ingress)
            _, scheduled_ms = request.message
            if front_ms > 0:
                yield Compute(front_ms)
            yield Call(backend, (service_class, scheduled_ms, back_ms),
                       transfer_fraction)
            runtime.complete(service_class, ctx.now - scheduled_ms)

    return body


def backend_body(backend: Any):
    """Backend worker: compute for whatever funding the RPC carried."""

    def body(ctx):
        while True:
            request = yield Receive(backend)
            service_class, _, back_ms = request.message
            if back_ms > 0:
                yield Compute(back_ms)
            yield Reply(request, ("done", service_class))

    return body
