"""Edge cases at the seams: barrier-instant replies, mid-epoch
migration, crash with cross-shard evacuation, sharded checkpoints.

These are the scenarios ISSUE 7 calls out explicitly -- each one
exercises a place where a naive sharding implementation silently
diverges from the single-loop oracle (payloads applied a barrier early
or late, sequence numbers drifting across a stop/resume, evacuated
threads respawning under a different PRNG draw order).
"""

from __future__ import annotations

import pytest

from repro.checkpoint.capture import capture_tree
from repro.checkpoint.statetree import tree_checksum
from repro.shard.engine import ShardedEngine
from repro.shard.plan import ShardPlan, mix_plan

BACKENDS = ["single", "inline", "mp"]


def _shard_section(engine: ShardedEngine, core: int) -> dict:
    return engine.snapshot_state()["cores"][core]["shard"]


def _channel_section(engine: ShardedEngine, core: int, name: str) -> dict:
    return engine.snapshot_state()["cores"][core]["channels"][name]


# -- cross-shard RPC reply landing exactly on an epoch boundary ---------------
#
# Timeline (quantum=100, epoch=100): the client on core 1 computes
# 10ms, then calls the service homed on core 0.  The call payload
# crosses at the t=100 barrier; the server then computes for exactly
# 100ms, so its reply is *emitted at the t=200 barrier instant* -- the
# half-open epoch boundary itself.  The reply must travel with the
# t=200 barrier's canonical payload batch (never early, never dropped)
# and wake the client at t=300.


def _boundary_reply_plan() -> ShardPlan:
    plan = ShardPlan(seed=5, cores=2, quantum=100.0, epoch_ms=100.0)
    plan.add_channel("svc", home=0)
    plan.add_thread(0, "rpc_server", "server", tickets=100.0, channel="svc",
                    work_ms=100.0)
    plan.add_thread(1, "rpc_client", "client", tickets=100.0, channel="svc",
                    compute_ms=10.0, sleep_ms=10.0, count=1)
    # Low-ticket background load keeps both kernels busy; a kernel that
    # goes idle mid-quantum refuses to snapshot (incoherent window).
    plan.add_thread(1, "spin", "bg1", tickets=1.0, chunk_ms=10.0)
    plan.add_thread(0, "spin", "bg0", tickets=1.0, chunk_ms=10.0)
    return plan


@pytest.mark.parametrize("backend", BACKENDS)
def test_reply_emitted_on_epoch_boundary_is_delivered(backend):
    with ShardedEngine(_boundary_reply_plan(), shards=2,
                       backend=backend) as engine:
        engine.advance(500.0)
        server_side = _channel_section(engine, 0, "svc")
        client_side = _channel_section(engine, 1, "svc")
        assert server_side["calls_applied"] == 1
        assert client_side["replies_applied"] == 1
        assert client_side["dropped_replies"] == 0
        assert server_side["pending"] == []


def test_boundary_reply_is_backend_invariant():
    digests = set()
    for backend in BACKENDS:
        with ShardedEngine(_boundary_reply_plan(), shards=2,
                           backend=backend) as engine:
            engine.advance(500.0)
            digests.add((tree_checksum(engine.merged_stream()),
                         tree_checksum(engine.snapshot_state())))
    assert len(digests) == 1, "backends disagreed on the boundary reply"


# -- thread migration between shards mid-epoch --------------------------------
#
# mix_plan(with_ops=True) scripts a restart-migration of spin0a from
# core 0 to core 3 at t=1250 -- the middle of a 500ms epoch.  The kill
# happens locally at 1250; the respawn payload travels with the t=1500
# barrier and lands on a core owned by a *different* shard under
# shards=2 (core 0 -> shard 0, core 3 -> shard 1).


@pytest.mark.parametrize("backend", BACKENDS)
def test_mid_epoch_migration_between_shards(backend):
    plan = mix_plan(seed=11, cores=4, with_ops=True)
    with ShardedEngine(plan, shards=2, backend=backend) as engine:
        engine.advance(2_500.0)  # past the migration, before the crash
        src = _shard_section(engine, 0)
        dst = _shard_section(engine, 3)
        assert src["migrations_out"] == 1
        assert src["ops_skipped"] == 0
        assert "spin0a" not in src["specs"]
        assert "spin0a" in dst["specs"]
        assert dst["payloads_applied"] >= 1  # the spawn payload landed


# -- core crash with cross-shard evacuation -----------------------------------
#
# The same plan crashes core 3 at t=2750 with evacuate_to=1: every
# restartable thread still alive on core 3 (including the migrated
# spin0a) is killed and respawned on core 1 via spawn payloads at the
# t=3000 barrier.  Threads without a restart spec are casualties.


@pytest.mark.parametrize("backend", BACKENDS)
def test_crash_evacuates_restartable_threads_across_shards(backend):
    plan = mix_plan(seed=11, cores=4, with_ops=True)
    with ShardedEngine(plan, shards=2, backend=backend) as engine:
        engine.advance(4_000.0)
        crashed = _shard_section(engine, 3)
        refuge = _shard_section(engine, 1)
        assert crashed["crashed"] is True
        assert crashed["evacuations"] >= 1
        assert crashed["specs"] == []  # nothing left on the dead core
        # The migrated thread survived both hops: core 0 -> 3 -> 1.
        assert "spin0a" in refuge["specs"]
        assert _shard_section(engine, 0)["crashed"] is False


def test_ops_run_is_backend_and_placement_invariant():
    digests = set()
    for backend, shards in [("single", 1), ("inline", 2), ("inline", 4),
                            ("mp", 2)]:
        plan = mix_plan(seed=11, cores=4, with_ops=True)
        with ShardedEngine(plan, shards=shards, backend=backend) as engine:
            engine.advance(4_000.0)
            digests.add((tree_checksum(engine.merged_stream()),
                         tree_checksum(engine.snapshot_state())))
    assert len(digests) == 1, "ops run diverged across backends/shards"


# -- sharded checkpoint/restore ------------------------------------------------


def test_shard_mix_checkpoint_restores_bit_exact(tmp_path):
    """save at an epoch barrier -> restore -> advance: the resumed
    universe is bit-identical to one that never stopped."""
    from repro.checkpoint.capture import restore, save
    from repro.checkpoint.registry import build_recipe

    straight = build_recipe("shard-mix",
                            {"seed": 11, "cores": 4, "with_ops": True})
    straight.advance(4_000.0)
    want_state = tree_checksum(capture_tree(straight))
    want_stream = straight.components["sharded"].merged_stream()

    handle = build_recipe("shard-mix",
                          {"seed": 11, "cores": 4, "with_ops": True})
    handle.advance(2_000.0)
    path = tmp_path / "shard.ckpt"
    save(handle, path)
    resumed, _payload = restore(path)
    resumed.advance(4_000.0)
    assert tree_checksum(capture_tree(resumed)) == want_state
    assert resumed.components["sharded"].merged_stream() == want_stream


def test_checkpoint_is_identical_across_backends(tmp_path):
    """A checkpoint written by the mp backend at 4 shards equals one
    written by inline at 2 -- shard/backend identity never leaks into
    the state tree."""
    from repro.checkpoint.registry import build_recipe
    from repro.checkpoint.capture import save

    digests = set()
    for backend, shards in [("inline", 2), ("mp", 4)]:
        handle = build_recipe("shard-mix",
                              {"seed": 11, "cores": 4, "shards": shards,
                               "backend": backend, "with_ops": True})
        handle.advance(2_000.0)
        digests.add(tree_checksum(capture_tree(handle)))
        save(handle, tmp_path / f"{backend}-{shards}.ckpt")
    assert len(digests) == 1
