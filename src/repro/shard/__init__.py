"""Deterministic sharded multicore engine.

Partitions a simulated machine into per-core universes that execute in
parallel between epoch barriers and merge in canonical order, so the
sharded run is bit-identical to the single-loop engine for any shard
count and backend (``single`` / ``inline`` / ``mp``).  See
``docs/SHARDING.md`` for the architecture and determinism argument.

This package is the *only* deterministic-zone-adjacent code allowed to
import ``multiprocessing`` (lint rule RPR012 bans concurrency imports
everywhere else in the zones).
"""

from repro._exports import lazy_exports

__all__ = [
    "BODY_REGISTRY",
    "HostFault",
    "HostFaultPlan",
    "ShardPlan",
    "ShardTopology",
    "ShardedEngine",
    "SupervisedMpBackend",
    "SupervisorPolicy",
    "load_host_faults",
    "mix_plan",
    "register_body",
    "spin_plan",
]

__getattr__ = lazy_exports(globals(), {
    "BODY_REGISTRY": ".builders", "register_body": ".builders",
    "ShardedEngine": ".engine",
    "HostFault": ".hostfaults", "HostFaultPlan": ".hostfaults",
    "load_host_faults": ".hostfaults",
    "ShardPlan": ".plan", "mix_plan": ".plan", "spin_plan": ".plan",
    "SupervisedMpBackend": ".supervisor", "SupervisorPolicy": ".supervisor",
    "ShardTopology": ".topology",
})
