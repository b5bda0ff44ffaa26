"""ShardedEngine protocol behaviour: grids, stop/resume, guards, and
core crash / restart ops."""

from __future__ import annotations

import pytest

from repro.errors import KernelError, ShardError
from repro.shard.engine import ShardedEngine
from repro.shard.plan import mix_plan, spin_plan
from tests.conftest import census_at, shard_plan


def test_advance_rejects_off_grid_horizons():
    with ShardedEngine(spin_plan(cores=2), shards=2) as engine:
        with pytest.raises(ShardError, match="epoch grid"):
            engine.advance(123.4)


@pytest.mark.parametrize("until", [float("nan"), float("inf"),
                                   float("-inf"), "500", None])
def test_advance_rejects_horizons_that_are_not_finite_numbers(until):
    """Named at the door, not a ValueError/OverflowError/TypeError from
    the grid arithmetic inside (or from a worker looping on it)."""
    with ShardedEngine(spin_plan(cores=2), shards=2) as engine:
        with pytest.raises(ShardError, match="'until' must be a finite"):
            engine.advance(until)
        assert engine.advance(200.0).now == 200.0  # still usable


@pytest.mark.parametrize("epoch_ms", [float("nan"), float("inf"), "100"])
def test_engine_rejects_an_epoch_that_is_not_a_finite_number(epoch_ms):
    with pytest.raises(ShardError, match="epoch_ms must be a finite"):
        ShardedEngine(spin_plan(cores=2, epoch_ms=epoch_ms))


def test_advance_rejects_going_backwards():
    with ShardedEngine(spin_plan(cores=2), shards=2) as engine:
        engine.advance(200.0)
        with pytest.raises(ShardError, match="backwards"):
            engine.advance(100.0)


def test_closed_engine_refuses_to_advance():
    engine = ShardedEngine(spin_plan(cores=2))
    engine.close()
    engine.close()  # idempotent
    with pytest.raises(ShardError, match="closed"):
        engine.advance(100.0)


def test_unknown_backend_is_an_error():
    with pytest.raises(ShardError, match="unknown shard backend"):
        ShardedEngine(spin_plan(cores=2), backend="gpu")


def test_kernel_run_until_is_barred_inside_a_sharded_run():
    """Driving one core's kernel directly would bypass the barrier
    protocol; the kernel must refuse while owned by a sharded run."""
    with ShardedEngine(spin_plan(cores=2), shards=1) as engine:
        kernel = engine.shard_kernels()[0]
        with pytest.raises(KernelError, match="ShardedEngine.advance"):
            kernel.run_until(1_000.0)


def test_stop_resume_is_bit_exact_against_a_straight_run():
    """Stopping at barriers (including several stops in a row) and
    resuming reproduces the uninterrupted run exactly."""
    plan = mix_plan(seed=11, cores=4, with_ops=True)
    with ShardedEngine(plan, shards=2) as straight:
        straight.advance(4_000.0)
        want_stream = straight.merged_stream()
        want_state = straight.snapshot_state()
    with ShardedEngine(mix_plan(seed=11, cores=4, with_ops=True),
                       shards=2) as stopping:
        for stop in (500.0, 1_000.0, 2_500.0, 4_000.0):
            stopping.advance(stop)
        assert stopping.merged_stream() == want_stream
        assert stopping.snapshot_state() == want_state


def test_snapshot_excludes_backend_and_shard_identity():
    plan_kwargs = {"seed": 11, "cores": 4}
    with ShardedEngine(mix_plan(**plan_kwargs), shards=1) as a, \
            ShardedEngine(mix_plan(**plan_kwargs), shards=4) as b:
        a.advance(1_500.0)
        b.advance(1_500.0)
        assert a.snapshot_state() == b.snapshot_state()


def test_merged_stream_is_time_then_core_ordered():
    with ShardedEngine(mix_plan(seed=11, cores=4), shards=2) as engine:
        engine.advance(2_000.0)
        stream = engine.merged_stream()
        keys = [(entry["time"], entry["core"]) for entry in stream]
        assert keys == sorted(keys)
        assert {entry["core"] for entry in stream} == {0, 1, 2, 3}


@pytest.mark.parametrize("backend", ["inline", "single"])
def test_merged_stream_stamps_copies_not_the_recorders(backend):
    """``core`` goes onto the parent's private copies: a recorder's own
    entries, whose checksum is state, never carry it."""
    with ShardedEngine(mix_plan(seed=11, cores=4), shards=2,
                       backend=backend) as engine:
        engine.advance(2_000.0)
        recorders = [core.recorder for core in engine._backend.cores]
        before = [recorder.snapshot_state() for recorder in recorders]
        state = engine.snapshot_state()
        stream = engine.merged_stream()
        assert stream and all("core" in entry for entry in stream)
        assert not any("core" in entry for recorder in recorders
                       for entry in recorder.entries)
        assert [recorder.snapshot_state()
                for recorder in recorders] == before
        assert engine.snapshot_state() == state


def test_mp_stream_equals_inline_entry_for_entry():
    streams = []
    for backend in ("mp", "inline"):
        with ShardedEngine(mix_plan(seed=11, cores=4), shards=2,
                           backend=backend) as engine:
            engine.advance(2_000.0)
            streams.append(engine.merged_stream())
    mp, inline = streams
    assert len(mp) == len(inline) > 0
    for got, want in zip(mp, inline):
        assert [(key, type(value), value) for key, value in got.items()] \
            == [(key, type(value), value) for key, value in want.items()]


def test_epoch_ms_override_changes_barrier_cadence():
    plan = mix_plan(seed=11, cores=4, epoch_ms=250.0)  # default: 500ms
    with ShardedEngine(plan, shards=2) as engine:
        engine.advance(1_000.0)
        assert engine._barriers == 4
        with pytest.raises(ShardError, match="epoch grid"):
            engine.advance(1_125.0)


def test_cross_core_ipc_latency_depends_on_epoch_not_backend():
    """Payloads travel at barriers, so epoch length is part of the
    universe definition -- but for any given epoch the backends agree."""
    digests = {}
    for epoch_ms in (250.0, 500.0):
        per_backend = set()
        for backend in ("single", "inline"):
            plan = mix_plan(seed=11, cores=4, epoch_ms=epoch_ms)
            with ShardedEngine(plan, shards=2, backend=backend) as engine:
                engine.advance(2_000.0)
                from repro.checkpoint.statetree import tree_checksum

                per_backend.add(tree_checksum(engine.merged_stream()))
        assert len(per_backend) == 1, f"backends diverged at {epoch_ms}"
        digests[epoch_ms] = per_backend.pop()
    assert digests[250.0] != digests[500.0]


def test_mp_worker_failure_surfaces_as_shard_error():
    """A worker-side exception travels back as a ShardError naming the
    shard, not as a hang or a silent truncation."""
    plan = spin_plan(cores=2)
    engine = ShardedEngine(plan, shards=2, backend="mp")
    try:
        # Corrupt the protocol deliberately: barrier() with a payload
        # for an unknown kind makes the worker raise.
        engine._backend.barrier(0.0, [{
            "kind": "warp", "target": 1, "src": 0, "seq": 1}])
        with pytest.raises(ShardError, match="shard worker"):
            engine._backend.run_epoch(100.0)
    finally:
        engine.close()


def node_plan(cores=3, rebalance_ms=500.0):
    return shard_plan(cores, *[(index % cores, f"w{index}", 100.0)
                               for index in range(cores * 2)],
                      rebalance_ms=rebalance_ms)


class TestNodeFaults:
    """Core crash / restart as plan ops, on the inline sharded engine."""

    def test_crash_evacuates_and_restart_rejoins(self):
        plan = node_plan().crash(1_000.0, 1, evacuate_to=0)
        (up, _), (down, cores), (back, later) = census_at(
            plan.restart(3_000.0, 1), 500.0, 1_500.0, 10_000.0)
        assert 1 in {row["core"] for row in up.values()}
        assert cores[1]["crashed"] and cores[1]["evacuations"] == 2
        assert 1 not in {row["core"] for row in down.values()}
        # The barrier-time rebalancer repopulated the returned core.
        assert not later[1]["crashed"]
        assert 1 in {row["core"] for row in back.values()}

    def test_crash_kills_pinned_thread_and_reclaims_tickets(self):
        plan = node_plan(rebalance_ms=None).add_thread(
            1, "spin", "victim", tickets=250.0, pinned=True, chunk_ms=20.0)
        (threads, cores), = census_at(plan.crash(1_000.0, 1, evacuate_to=2),
                                      2_000.0)
        assert (cores[1]["casualties"], cores[1]["evacuations"]) == (1, 2)
        # The victim's 250 tickets died with it; the rest still fund
        # live threads.
        assert sum(row["funding"] for row in threads.values()
                   if row["core"] is not None) == 600.0
        assert threads["victim"]["core"] is None

    def test_crash_lost_race_is_recorded_not_raised(self):
        plan = node_plan(cores=2, rebalance_ms=None)
        plan.crash(1_000.0, 0).crash(1_500.0, 0)  # already down: skipped
        (_, cores), = census_at(plan, 2_000.0)
        assert cores[0]["crashed"] and cores[0]["ops_skipped"] == 1
        assert cores[0]["casualties"] == 2
