"""Observability-plane experiment: one truth across every backend.

The sharded runtime promises that moving a workload between execution
backends -- one core inline, N logical cores in-process, N worker
processes over pipes, or those processes killed and restarted
mid-run -- changes *how* the simulation executes but not *what* it
observes.  This experiment exercises the cross-shard observability
plane end to end: the same :func:`~repro.shard.plan.mix_plan` workload
runs under each backend with observability enabled, and we compare the
canonical report checksum, the stitched Chrome-trace checksum, and the
SLO verdict across runs.

Expected outcome (the tentpole acceptance criterion):

* the canonical report sha256 and the stitched-trace sha256 are
  byte-identical across all backends, including the mp run that has a
  worker killed at every epoch barrier;
* only the *recovery annex* checksum differs on the faulted run -- the
  mp backend's restarts are real events and are reported, but they are
  kept out of the canonical section so fault recovery cannot silently
  perturb the scientific record;
* the deterministic SLO watchdogs (fairness drift, per-band p99
  latency, starvation) pass on the healthy workload under every
  backend, with the same breach list (empty) everywhere.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Sequence, Tuple

from repro.experiments.common import ExperimentResult
from repro.shard.engine import ShardedEngine
from repro.shard.hostfaults import kill_every_epoch
from repro.shard.plan import mix_plan

__all__ = ["BACKENDS", "run", "run_backend", "main"]

#: (label, backend, shards, mp-with-kill-every-epoch) combos.
BACKENDS: Sequence[Tuple[str, str, int, bool]] = (
    ("single", "single", 1, False),
    ("inline x2", "inline", 2, False),
    ("inline x4", "inline", 4, False),
    ("mp x2", "mp", 2, False),
    ("supervised+kill x2", "mp", 2, True),
)


def run_backend(backend: str, shards: int, faulted: bool = False,
                until: float = 2000.0, cores: int = 4,
                seed: int = 11) -> Dict[str, Any]:
    """One obs-enabled run; returns the checksums and the SLO verdict."""
    plan = mix_plan(seed=seed, cores=cores)
    host_faults = kill_every_epoch(shards) if faulted else None
    with ShardedEngine(plan, shards=shards, backend=backend,
                       host_faults=host_faults, obs=True) as engine:
        engine.advance(until)
        trace = json.loads(engine.stitched_trace())
        report = engine.obs_report()
        recovery = engine.recovery_summary()
    return {
        "canonical_sha": report["canonical_sha256"],
        "trace_sha": trace["metadata"]["sha256"],
        "recovery_sha": trace["metadata"]["recovery_sha256"],
        "slo_ok": report["canonical"]["slo"]["ok"],
        "breaches": len(report["canonical"]["slo"]["breaches"]),
        "restarts": sum(recovery["restarts"]),
    }


def run(until: float = 2000.0, cores: int = 4,
        seed: int = 11) -> ExperimentResult:
    """Run every backend combo and compare the observability outputs."""
    result = ExperimentResult(
        name="shard-observability",
        params={"plan": "mix", "cores": cores, "seed": seed,
                "until_ms": until},
    )
    outcomes: List[Dict[str, Any]] = []
    for label, backend, shards, faulted in BACKENDS:
        outcome = run_backend(backend, shards, faulted=faulted,
                              until=until, cores=cores, seed=seed)
        outcomes.append(outcome)
        result.rows.append({
            "backend": label,
            "canonical": outcome["canonical_sha"][:12],
            "trace": outcome["trace_sha"][:12],
            "recovery": outcome["recovery_sha"][:12],
            "slo": "PASS" if outcome["slo_ok"] else "FAIL",
            "breaches": outcome["breaches"],
            "restarts": outcome["restarts"],
        })

    canonical = {o["canonical_sha"] for o in outcomes}
    traces = {o["trace_sha"] for o in outcomes}
    healthy_recovery = {o["recovery_sha"]
                        for o in outcomes if o["restarts"] == 0}
    faulted_recovery = {o["recovery_sha"]
                        for o in outcomes if o["restarts"] > 0}
    result.measures.update(
        canonical_sha=sorted(canonical), trace_sha=sorted(traces),
        slo_ok=all(o["slo_ok"] for o in outcomes), backends=len(outcomes))
    result.summary["canonical reports agree"] = (
        "yes" if len(canonical) == 1 else f"NO ({len(canonical)} distinct)"
    )
    result.summary["stitched traces agree"] = (
        "yes" if len(traces) == 1 else f"NO ({len(traces)} distinct)"
    )
    result.summary["recovery annex differs only when faulted"] = (
        "yes" if faulted_recovery and not (faulted_recovery
                                           & healthy_recovery)
        else "NO"
    )
    result.summary["slo verdict"] = (
        "PASS everywhere" if result.measures["slo_ok"] else "FAIL somewhere"
    )
    return result


def main() -> None:  # pragma: no cover - CLI convenience
    run().print_report()


if __name__ == "__main__":  # pragma: no cover
    main()
