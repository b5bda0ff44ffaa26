"""Heavy-traffic serving arena: open-loop overload on the paper's kernel.

The ROADMAP's north-star scenario: deterministic open-loop arrival
streams (:mod:`repro.workloads.arrivals`) drive a multi-tier service --
per-class arrival pumps feeding frontend threads that RPC a backend
pool with ticket transfers -- through admission control priced in
tickets and an SLO feedback loop that inflates a class's tickets when
its wake->dispatch p99 breaches target.  ``experiments/serving_tail``
is the head-to-head harness; ``docs/SERVING.md`` the narrative.
"""

from repro._exports import lazy_exports

__all__ = [
    "AdmissionController",
    "TokenBucket",
    "ArenaConfig",
    "ServingArena",
    "build_arena",
    "serving_plan",
    "ClassLatencyProbe",
    "SloController",
    "ServingStats",
    "DEFAULT_CLASSES",
    "ServiceClassSpec",
    "ServingRuntime",
    "capacity_rps",
]

__getattr__ = lazy_exports(globals(), {
    "AdmissionController": ".admission", "TokenBucket": ".admission",
    "ArenaConfig": ".arena", "ServingArena": ".arena", "build_arena": ".arena",
    "serving_plan": ".shardplan",
    "ClassLatencyProbe": ".slo_controller", "SloController": ".slo_controller",
    "ServingStats": ".stats",
    "DEFAULT_CLASSES": ".tiers", "ServiceClassSpec": ".tiers",
    "ServingRuntime": ".tiers", "capacity_rps": ".tiers",
})
