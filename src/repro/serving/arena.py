"""Single-kernel serving arena: wire the tiers onto one simulated CPU.

``build_arena`` assembles, on a caller-provided kernel (so any
scheduling policy from ``experiments.common`` can sit underneath):

* one currency + backing ticket per service class (the backing ticket
  is the SLO controller's inflation lever -- raising it raises every
  thread funded in the class currency at once, section 3.3's currency
  abstraction doing the fan-out);
* one ingress port, one arrival pump, and N frontends per class;
* a shared backend port with a worker pool funded in base;
* optionally an admission controller and an SLO feedback thread.

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
from repro.serving.slo_controller import ClassLatencyProbe, SloController
from repro.serving.stats import ServingStats
from repro.serving.tiers import (DEFAULT_CLASSES, ServiceClassSpec,
                                 ServingRuntime, backend_body, capacity_rps,
                                 frontend_body, pump_body)
from repro.workloads.arrivals import make_arrivals

if TYPE_CHECKING:  # pragma: no cover
    from repro.kernel.kernel import Kernel

__all__ = ["ArenaConfig", "ServingArena", "build_arena"]

#: Per-class arrival streams are decorrelated from each other and from
#: the kernel's own seed by this prime stride.
_CLASS_SEED_STRIDE = 7919


@dataclass(frozen=True)
class ArenaConfig:
    """Everything that determines an arena run, hashable and explicit."""

    seed: int = 2026
    load_factor: float = 1.0
    requests_per_class: int = 500
    classes: Tuple[ServiceClassSpec, ...] = DEFAULT_CLASSES
    backends: int = 3
    transfer_fraction: float = 1.0
    admission: bool = True
    admission_headroom: float = 1.2
    admission_burst_s: float = 0.5
    slo: bool = False
    slo_epoch_ms: float = 250.0
    slo_min_samples: int = 20
    pump_tickets: float = 50.0
    frontend_tickets: float = 100.0
    backend_tickets: float = 50.0
    bin_ms: float = 5.0

    def __post_init__(self) -> None:
        count, load = self.requests_per_class, self.load_factor
        if isinstance(count, bool) or not isinstance(count, int) or count < 1:
            raise ExperimentError(
                f"requests_per_class must be a positive int: {count!r}")
        if not (isinstance(load, (int, float)) and math.isfinite(load)
                and load > 0):
            raise ExperimentError(
                f"load_factor must be finite and positive: {load!r}")

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
        self.runtime = ServingRuntime(
            kernel, ServingStats(bin_ms=config.bin_ms))
        self.probe = ClassLatencyProbe(
            self.runtime.stats, bin_ms=config.bin_ms)
        self.runtime.probe = self.probe
        self.admission: Optional[AdmissionController] = None
        self.controller: Optional[SloController] = None
        self.levers: Dict[str, Any] = {}
        self._build()

    # -- construction ------------------------------------------------------

    def _build(self) -> None:
        kernel, config = self.kernel, self.config
        kernel.attach_recorder(self.probe)
        if config.admission:
            self.admission = AdmissionController(
                config.capacity_rps(),
                {spec.name: spec.tickets for spec in config.classes},
                headroom=config.admission_headroom,
                burst_s=config.admission_burst_s)
        if config.slo:
            self.controller = SloController(
                self.probe, epoch_ms=config.slo_epoch_ms,
                min_samples=config.slo_min_samples)
        backend = Port(kernel, "svc:backend")
        for index, spec in enumerate(config.classes):
            currency = kernel.ledger.create_currency(spec.name)
            backing = kernel.ledger.create_ticket(
                spec.tickets, fund=currency, tag=f"class:{spec.name}")
            self.levers[spec.name] = backing
            ingress = Port(kernel, f"svc:in:{spec.name}")
            process = make_arrivals(
                spec.arrival_kind,
                config.seed + _CLASS_SEED_STRIDE * (index + 1),
                self.config.class_rate_per_s(spec),
                **dict(spec.arrival_params))
            admit = None
            if self.admission is not None:
                controller = self.admission
                admit = (lambda at_ms, _name=spec.name:
                         controller.admit(_name, at_ms))
            kernel.spawn(
                pump_body(self.runtime, spec.name, process, ingress,
                          config.requests_per_class, admit),
                f"pump:{spec.name}", tickets=config.pump_tickets)
            for worker in range(spec.frontends):
                kernel.spawn(
                    frontend_body(self.runtime, spec.name, ingress,
                                  backend, spec.front_ms, spec.back_ms,
                                  config.transfer_fraction),
                    f"fe:{spec.name}:{worker}",
                    tickets=config.frontend_tickets, currency=currency)
            if self.controller is not None:
                self.controller.add_class(
                    spec.name, spec.target_p99_ms, [backing])
        for worker in range(config.backends):
            kernel.spawn(backend_body(backend), f"be:{worker}",
                         tickets=config.backend_tickets)
        if self.controller is not None:
            kernel.spawn(self.controller.body(), "slo:controller",
                         tickets=config.pump_tickets)

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
        }
        if self.admission is not None:
            state["admission"] = self.admission.snapshot_state()
        if self.controller is not None:
            state["slo"] = self.controller.snapshot_state()
        return state


def build_arena(kernel: "Kernel", config: ArenaConfig) -> ServingArena:
    """Construct a :class:`ServingArena` on ``kernel``."""
    return ServingArena(kernel, config)
