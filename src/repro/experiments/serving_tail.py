"""Tail latency under open-loop overload: lottery vs the baselines.

The ROADMAP's heavy-traffic scenario, measured.  A deterministic
open-loop arrival trace (identical for every policy) drives the
multi-tier serving arena at 0.7 / 1.0 / 1.5x capacity under lottery,
stride, round-robin, and timesharing; the verdict is per-class
p99/p99.9 wake->dispatch and end-to-end latency.  The claim under
test: at 1.5x overload, lottery keeps the classes' wake->dispatch p99
*ordered by ticket share* (gold < silver < bronze, with real spread),
while ticket-blind timesharing serves the classes indistinguishably --
the open-loop analogue of the paper's responsiveness claim (a client
with p% of the tickets wins the next draw with probability p).

Three sections:

* **policy x load sweep** -- the head-to-head table;
* **SLO inflation** -- lottery at 1.5x with the feedback controller
  enabled and bronze's target tightened so it breaches: the controller
  inflates bronze's currency backing until its windowed p99 recovers
  (section 3.2's ticket inflation, closed-loop);
* **sharded equivalence** -- the same arena partitioned per core via
  ``repro.serving.shardplan`` and executed on every ShardedEngine
  backend; the merged-stream and state checksums must agree with the
  single-loop oracle (``repro.shard verify`` semantics inline).

The rendered report is byte-stable: two same-seed runs must produce
identical bytes (CI ``cmp``s them), and the sharded section embeds the
cross-backend checksums, so backend divergence is a report diff.
"""

from __future__ import annotations

import argparse
from dataclasses import replace
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.experiments.common import (ExperimentResult, build_machine,
                                      format_table)
from repro.serving.arena import ArenaConfig, ServingArena, build_arena
from repro.serving.shardplan import serving_plan
from repro.serving.tiers import DEFAULT_CLASSES

__all__ = ["POLICIES", "LOADS", "run_arena", "run", "report_text", "main"]

#: Head-to-head policies: the paper's mechanism vs the deterministic
#: proportional-share alternative vs the two ticket-blind baselines.
POLICIES: Tuple[str, ...] = ("lottery", "stride", "round-robin",
                             "timesharing")

#: Offered load as a multiple of arena capacity.
LOADS: Tuple[float, ...] = (0.7, 1.0, 1.5)

#: Class order for reading tables: descending ticket share.
_CLASS_ORDER = ("gold", "silver", "bronze")

#: Policy quantum for the sweep: short enough that wake->dispatch
#: differences are scheduling policy, not quantum granularity.
_QUANTUM_MS = 20.0


def _arena_config(seed: int, load: float, requests: int,
                  slo: bool = False) -> ArenaConfig:
    classes = DEFAULT_CLASSES
    if slo:
        # Tighten bronze so it breaches at overload and the controller
        # has something to do.
        classes = tuple(
            replace(spec, target_p99_ms=40.0)
            if spec.name == "bronze" else spec
            for spec in classes)
    # min_samples=10: admission sheds most bronze load at overload, so
    # control windows see few bronze dispatches; the default threshold
    # would leave the controller idle most epochs.
    return ArenaConfig(seed=seed, load_factor=load,
                       requests_per_class=requests, classes=classes,
                       slo=slo, slo_min_samples=10)


def run_arena(policy: str, load: float, requests: int,
              seed: int = 2026, slo: bool = False) -> ServingArena:
    """One (policy, load) cell: build, drive to the horizon, return."""
    machine = build_machine(seed=seed, quantum=_QUANTUM_MS, policy=policy)
    arena = build_arena(machine.kernel,
                        _arena_config(seed, load, requests, slo=slo))
    arena.run()
    return arena


def _ordered_with_spread(by_class: Dict[str, float],
                         spread: float = 2.0) -> bool:
    """Share-ordered tails: gold <= silver <= bronze with real spread."""
    gold, silver, bronze = (by_class[name] for name in _CLASS_ORDER)
    return gold <= silver <= bronze and bronze >= spread * max(gold, 1.0)


def _shard_section(seed: int, quick: bool) -> List[Dict[str, Any]]:
    """Run the partitioned arena on every backend; report checksums."""
    from repro.checkpoint.statetree import tree_checksum
    from repro.shard.engine import ShardedEngine

    requests = 120 if quick else 300
    horizon = 4000.0 if quick else 8000.0
    combos = [("single", 1), ("inline", 2)]
    if not quick:
        combos.append(("mp", 2))
    rows: List[Dict[str, Any]] = []
    for backend, shards in combos:
        plan = serving_plan(seed=seed, cores=2,
                            requests_per_class=requests, slo=True)
        with ShardedEngine(plan, shards=shards, backend=backend) as engine:
            engine.advance(horizon)
            rows.append({
                "backend": backend,
                "shards": shards,
                "events": len(engine.merged_stream()),
                "stream_sha": tree_checksum(engine.merged_stream())[:16],
                "state_sha": tree_checksum(engine.snapshot_state())[:16],
            })
    return rows


def run(quick: bool = True, seed: int = 2026,
        requests: Optional[int] = None) -> ExperimentResult:
    """The full experiment; ``quick`` sizes it for a PR-gate smoke."""
    if requests is None:
        requests = 200 if quick else 2_000
    rows: List[Dict[str, Any]] = []
    wake_p99: Dict[str, Dict[str, float]] = {}
    for policy in POLICIES:
        for load in LOADS:
            arena = run_arena(policy, load, requests, seed=seed)
            stats = arena.stats
            if load == LOADS[-1]:
                wake_p99[policy] = {name: stats.wake[name].percentile(99.0)
                                    for name in _CLASS_ORDER}
            for name in _CLASS_ORDER:
                row = stats.row(name)
                rows.append({"policy": policy, "load": load, **row})

    # SLO inflation demo: lottery at overload, bronze target tightened.
    slo_arena = run_arena("lottery", LOADS[-1], max(requests, 600),
                          seed=seed, slo=True)
    controller = slo_arena.controller
    recovery = controller.recovery_epoch("bronze")
    inflations = sum(1 for entry in controller.history
                     if entry["class"] == "bronze"
                     and entry["action"] == "inflate")
    bronze_final = slo_arena.levers["bronze"].amount

    shard_rows = _shard_section(seed, quick)
    shard_agreement = len({(row["stream_sha"], row["state_sha"])
                           for row in shard_rows}) == 1

    lottery_ordered = _ordered_with_spread(wake_p99["lottery"])
    timesharing_ordered = _ordered_with_spread(wake_p99["timesharing"])
    measures = dict(lottery_ordered=lottery_ordered,
                    timesharing_ordered=timesharing_ordered,
                    recovery_epoch=recovery, shard_rows=shard_rows,
                    passed=(lottery_ordered and not timesharing_ordered
                            and recovery is not None and shard_agreement))
    summary = {
        "lottery wake-p99 share-ordered at 1.5x":
            "yes" if lottery_ordered else "NO",
        "timesharing wake-p99 share-ordered at 1.5x":
            "yes" if timesharing_ordered else "no",
        "slo bronze inflations": inflations,
        "slo bronze recovery epoch":
            "never" if recovery is None else recovery,
        "slo bronze final lever": round(bronze_final, 3),
        "sharded backends agree":
            "yes" if shard_agreement else "NO",
        "verdict": "PASS" if measures["passed"] else "FAIL",
    }
    return ExperimentResult(
        name="serving_tail",
        params={"seed": seed, "quick": quick,
                "requests_per_class": requests,
                "loads": "/".join(str(load) for load in LOADS),
                "policies": ",".join(POLICIES)},
        rows=rows,
        summary=summary,
        measures=measures,
    )


def report_text(result: ExperimentResult) -> str:
    """Byte-stable textual report (written with a .sha256 sidecar)."""
    lines = [f"== {result.name} =="]
    lines.append("params: " + ", ".join(
        f"{key}={value}" for key, value in result.params.items()))
    lines.append("")
    lines.append(format_table(result.rows))
    lines.append("")
    lines.append("-- sharded equivalence --")
    lines.append(format_table(result.measures["shard_rows"]))
    lines.append("")
    lines.extend(f"{key}: {value}" for key, value in result.summary.items())
    return "\n".join(lines) + "\n"


def main(argv: Optional[Sequence[str]] = None) -> None:
    from repro.shard.__main__ import positive_int

    parser = argparse.ArgumentParser(
        description="Tail latency under open-loop overload.")
    parser.add_argument("--quick", action="store_true",
                        help="PR-gate smoke sizing")
    parser.add_argument("--seed", type=int, default=2026)
    parser.add_argument("--requests", type=positive_int, default=None,
                        help="requests per class (overrides sizing)")
    parser.add_argument("--out", default=None,
                        help="write the report (plus .sha256) here")
    args = parser.parse_args(argv)
    result = run(quick=args.quick, seed=args.seed, requests=args.requests)
    text = report_text(result)
    print(text, end="")
    if args.out:
        from repro.telemetry import write_checksummed

        write_checksummed(args.out, text)


if __name__ == "__main__":  # pragma: no cover
    main()
