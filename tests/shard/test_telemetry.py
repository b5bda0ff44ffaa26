"""Shard telemetry: every epoch barrier is an instant on the stitched
trace's barrier track, and it carries the count of payloads that
crossed shards there."""

from __future__ import annotations

import json

from repro.shard.engine import ShardedEngine
from repro.shard.plan import mix_plan


def test_barrier_events_carry_payload_counts():
    with ShardedEngine(mix_plan(seed=11, cores=4), shards=2,
                       backend="inline", obs=True) as engine:
        engine.advance(2_000.0)
        instants = engine.obs.barrier_instants()
        trace = json.loads(engine.stitched_trace())
    barriers = [event for event in trace["traceEvents"]
                if event["name"] == "shard.barrier"]
    assert all(event["ph"] == "i" for event in barriers)
    assert [event["args"]["payloads"] for event in barriers] == \
        [instant["payloads"] for instant in instants]
    # mix_plan has cross-core RPC traffic, so at least one barrier
    # must have carried payloads.
    assert any(instant["payloads"] > 0 for instant in instants)
