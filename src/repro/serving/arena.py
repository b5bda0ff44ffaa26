"""Single-kernel serving arena: wire the tiers onto one simulated CPU.

``build_arena`` assembles, on a caller-provided kernel (so any
scheduling policy from ``experiments.common`` can sit underneath):

* one currency + backing ticket per service class (the backing ticket
  is the SLO controller's inflation lever -- raising it raises every
  thread funded in the class currency at once, section 3.3's currency
  abstraction doing the fan-out);
* one ingress port, one arrival pump, and N frontends per class;
* a shared backend port with a worker pool funded in base;
* a ticket-priced admission controller at every pump, and optionally
  an SLO feedback thread.

The arena measures; it never decides.  All policy lives in the
scheduler underneath, the admission pricing, and the SLO loop.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple, TYPE_CHECKING

from repro.errors import ExperimentError
from repro.kernel.ipc import Port
from repro.serving.admission import AdmissionController
from repro.serving.slo_controller import SloController
from repro.serving.stats import ServingStats
from repro.serving.tiers import (ARRIVAL_SEED_STRIDE, BACKEND_TICKETS,
                                 DEFAULT_CLASSES, FRONTEND_TICKETS,
                                 PUMP_TICKETS, ServiceClassSpec,
                                 ServingRuntime, backend_body, capacity_rps,
                                 frontend_body, pump_body)
from repro.workloads.arrivals import make_arrivals

if TYPE_CHECKING:  # pragma: no cover
    from repro.kernel.kernel import Kernel

__all__ = ["ArenaConfig", "ServingArena", "build_arena"]

#: Workers in the shared backend pool.
BACKENDS = 3


@dataclass(frozen=True)
class ArenaConfig:
    """Everything that determines an arena run, hashable and explicit."""

    seed: int = 2026
    load_factor: float = 1.0
    requests_per_class: int = 500
    classes: Tuple[ServiceClassSpec, ...] = DEFAULT_CLASSES
    slo: bool = False
    slo_min_samples: int = 20

    def __post_init__(self) -> None:
        def is_int(value: Any) -> bool:
            return isinstance(value, int) and not isinstance(value, bool)

        count, load = self.requests_per_class, self.load_factor
        if not is_int(self.seed):
            raise ExperimentError(f"seed must be an int: {self.seed!r}")
        if not is_int(count) or count < 1:
            raise ExperimentError(
                f"requests_per_class must be a positive int: {count!r}")
        if not (isinstance(load, (int, float)) and math.isfinite(load)
                and load > 0):
            raise ExperimentError(
                f"load_factor must be finite and positive: {load!r}")
        if not (isinstance(self.classes, tuple) and self.classes and all(
                isinstance(spec, ServiceClassSpec) for spec in self.classes)
                and any(spec.request_cpu_ms() > 0 for spec in self.classes)):
            raise ExperimentError(
                f"classes must be a non-empty tuple of ServiceClassSpec, "
                f"one with front_ms + back_ms > 0: {self.classes!r}")
        if not is_int(self.slo_min_samples) or self.slo_min_samples < 0:
            raise ExperimentError(
                f"slo_min_samples must be a non-negative int: "
                f"{self.slo_min_samples!r}")

    def capacity_rps(self) -> float:
        return capacity_rps(self.classes)

    def class_rate_per_s(self, spec: ServiceClassSpec) -> float:
        """Offered arrival rate for one class (requests/second)."""
        return self.load_factor * self.capacity_rps() * spec.weight

    def horizon_ms(self, margin: float = 1.1) -> float:
        """Virtual time by which every pump has replayed its trace.

        The slowest class finishes its ``requests_per_class`` arrivals
        last; a small margin lets in-flight work at that instant drain
        a little (under overload the backlog never fully drains -- by
        design).
        """
        slowest_s = max(self.requests_per_class / self.class_rate_per_s(spec)
                        for spec in self.classes)
        return slowest_s * 1000.0 * margin


class ServingArena:
    """A built arena: threads are spawned, ports wired, stats shared."""

    def __init__(self, kernel: "Kernel", config: ArenaConfig) -> None:
        self.kernel = kernel
        self.config = config
        self.runtime = ServingRuntime(kernel)
        self.probe = self.runtime.probe
        self.admission = AdmissionController(
            config.capacity_rps(),
            {spec.name: spec.tickets for spec in config.classes})
        self.controller: Optional[SloController] = None
        self.levers: Dict[str, Any] = {}
        self._build()

    # -- construction ------------------------------------------------------

    def _build(self) -> None:
        kernel, config = self.kernel, self.config
        admission = self.admission
        if config.slo:
            self.controller = SloController(
                self.probe, min_samples=config.slo_min_samples)
        backend = Port(kernel, "svc:backend")
        for index, spec in enumerate(config.classes):
            currency = kernel.ledger.create_currency(spec.name)
            backing = kernel.ledger.create_ticket(
                spec.tickets, fund=currency, tag=f"class:{spec.name}")
            self.levers[spec.name] = backing
            ingress = Port(kernel, f"svc:in:{spec.name}")
            process = make_arrivals(
                spec.arrival_kind,
                config.seed + ARRIVAL_SEED_STRIDE * (index + 1),
                config.class_rate_per_s(spec),
                **dict(spec.arrival_params))
            kernel.spawn(
                pump_body(self.runtime, spec.name, process, ingress,
                          config.requests_per_class,
                          lambda at_ms, _name=spec.name:
                          admission.admit(_name, at_ms)),
                f"pump:{spec.name}", tickets=PUMP_TICKETS)
            for worker in range(spec.frontends):
                kernel.spawn(
                    frontend_body(self.runtime, spec.name, ingress,
                                  backend, spec.front_ms, spec.back_ms),
                    f"fe:{spec.name}:{worker}",
                    tickets=FRONTEND_TICKETS, currency=currency)
            if self.controller is not None:
                self.controller.add_class(
                    spec.name, spec.target_p99_ms, [backing])
        for worker in range(BACKENDS):
            kernel.spawn(backend_body(backend), f"be:{worker}",
                         tickets=BACKEND_TICKETS)
        if self.controller is not None:
            kernel.spawn(self.controller.body(), "slo:controller",
                         tickets=PUMP_TICKETS)

    # -- execution and reporting -------------------------------------------

    @property
    def stats(self) -> ServingStats:
        return self.runtime.stats

    def run(self, until_ms: Optional[float] = None) -> None:
        """Advance the kernel to ``until_ms`` (default: the horizon)."""
        horizon = until_ms if until_ms is not None \
            else self.config.horizon_ms()
        self.kernel.run_until(horizon)

    def rows(self) -> List[Dict[str, Any]]:
        return self.stats.rows()

    def snapshot_state(self) -> Dict[str, Any]:
        """Typed state tree for checkpointing (see ``repro.checkpoint``)."""
        state: Dict[str, Any] = {
            "stats": self.stats.snapshot_state(),
            "probe": self.probe.snapshot_state(),
            "admission": self.admission.snapshot_state(),
        }
        if self.controller is not None:
            state["slo"] = self.controller.snapshot_state()
        return state


def build_arena(kernel: "Kernel", config: ArenaConfig) -> ServingArena:
    """Construct a :class:`ServingArena` on ``kernel``."""
    return ServingArena(kernel, config)
