"""Pinned digests of the serving stack: the arena, the sharded plan and
the serving_tail report.

Each digest is a sha256 prefix of the canonical encoding
(``tree_checksum``), so a change anywhere in the stack that moves a
single request, ticket amount or histogram bin moves a digest.  The
arena cells are the bench's two serving configurations at a smaller
request count: ``serve_steady`` (0.7x load, every sink off) and
``serve_overload_obs`` (1.5x, bronze's target tightened to 40 ms, the
SLO loop on at ``slo_min_samples=10``, the telemetry hub attached).
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.checkpoint.statetree import tree_checksum
from repro.experiments import serving_tail
from repro.experiments.common import build_machine
from repro.serving.arena import ArenaConfig, build_arena
from repro.serving.shardplan import serving_plan
from repro.serving.tiers import DEFAULT_CLASSES
from repro.shard.engine import ShardedEngine


def _sha(tree) -> str:
    return tree_checksum(tree)[:16]


def _arena_digests(load, slo, hub, requests):
    machine = build_machine(seed=1, quantum=20.0, policy="lottery")
    if hub:
        from repro.telemetry import Telemetry

        Telemetry().instrument_kernel(machine.kernel, track="serving")
    classes = DEFAULT_CLASSES
    if slo:
        classes = tuple(replace(spec, target_p99_ms=40.0)
                        if spec.name == "bronze" else spec
                        for spec in classes)
    arena = build_arena(machine.kernel, ArenaConfig(
        seed=1, load_factor=load, requests_per_class=requests,
        classes=classes, slo=slo, slo_min_samples=10))
    arena.run()
    return [_sha(arena.rows()), _sha(arena.snapshot_state()),
            _sha(machine.kernel.snapshot_state())]


@pytest.mark.parametrize("load, slo, hub, requests, digests", [
    (0.7, False, False, 300,
     ["40e6be80661ef8f0", "f95228ddcd294bcf", "94ae903c5758346c"]),
    # 300 requests a class is enough for the SLO loop to inflate a
    # lever and deflate it again, and for admission to shed.
    (1.5, True, True, 300,
     ["bbb7e79e03977163", "9abeecbac26f5a7f", "b8657c8538c2d6f4"]),
], ids=["serve_steady", "serve_overload_obs"])
def test_arena_rows_and_state_trees(load, slo, hub, requests, digests):
    assert _arena_digests(load, slo, hub, requests) == digests


@pytest.mark.parametrize("slo, digests", [
    (False, ["d19592ee22f5afe3", "79b17a368ca9da25", "47b5a6c5c232fc1e"]),
    (True, ["868a113ba7945943", "701d93f6961e1880", "99bdb73c8ca834c7"]),
], ids=["slo_off", "slo_on"])
def test_serving_plan_checksum_state_and_stream(slo, digests):
    plan = serving_plan(seed=31, cores=2, requests_per_class=60, slo=slo)
    with ShardedEngine(plan, shards=1, backend="single") as engine:
        engine.advance(2000.0)
        got = [plan.checksum()[:16], _sha(engine.snapshot_state()),
               _sha(engine.merged_stream())]
    assert got == digests


def test_serving_tail_quick_report():
    result = serving_tail.run(quick=True, requests=80)
    assert _sha(serving_tail.report_text(result)) == "bc564aa9208598f4"
