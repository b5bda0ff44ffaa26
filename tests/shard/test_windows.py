"""Lookahead slice commands: one round-trip per quiet window.

Two kinds of check, both deterministic facts of a run (no wall clock):

* work counts -- how many commands an ``advance()`` hands the backend,
  counted at the ``_broadcast`` seam, and what the trap does when the
  lookahead is wrong;
* a differential against ``backend="single"``, which barriers at every
  grid instant and never consults the lookahead: generated plans, ops
  placed exactly on barriers and stop points, generated ``advance()``
  slicings, a grid whose instants are not exact in binary.
"""

from __future__ import annotations

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.checkpoint.statetree import tree_checksum
from repro.errors import ShardError
from repro.experiments.chaos_fairness import chaos_plan
from repro.shard.backends import SupervisorPolicy
from repro.shard.engine import ShardedEngine
from repro.shard.hostfaults import HostFault, HostFaultPlan, kill_every_epoch
from repro.shard.plan import ShardPlan, mix_plan, spin_plan
from repro.telemetry.spans import SpanTracer

FAST = SupervisorPolicy(max_retries=3, deadline_s=15.0,
                        backoff_base_s=0.01, backoff_max_s=0.05)


def _commands(engine: ShardedEngine) -> list:
    """Every message ``engine``'s backend broadcasts from now on."""
    seen: list = []
    real = engine._backend._broadcast

    def counted(message):
        seen.append(message)
        return real(message)

    engine._backend._broadcast = counted
    return seen


def _digests(engine: ShardedEngine) -> tuple:
    state = engine.snapshot_state()
    return (tree_checksum(engine.merged_stream()), tree_checksum(state),
            state["barriers"])


def _driven(plan: ShardPlan, stops, **engine_args) -> tuple:
    with ShardedEngine(ShardPlan.from_dict(plan.to_dict()),
                       **engine_args) as engine:
        for stop in stops:
            engine.advance(stop)
        return _digests(engine)


def _oracle(plan: ShardPlan, stops) -> tuple:
    return _driven(plan, stops, backend="single")


# -- work counts ---------------------------------------------------------------


@pytest.mark.parametrize("stops", [[5_000.0],
                                   [500.0 * k for k in range(1, 11)]])
def test_a_quiet_advance_costs_two_commands_whatever_its_length(stops):
    """50 epochs of a channel-free plan: one window and one stop per
    ``advance()`` (the per-epoch protocol sent 2 x epochs + 1)."""
    with ShardedEngine(spin_plan(cores=4), shards=2) as engine:
        seen = _commands(engine)
        for stop in stops:
            del seen[:]
            engine.advance(stop)
            assert [m["inclusive"] for m in seen] == [False, True]
        assert _digests(engine) == _oracle(spin_plan(cores=4), stops)
        assert engine.snapshot_state()["barriers"] == 50


def test_a_channel_plan_costs_one_command_per_epoch():
    """Traffic may be due at every barrier, so the window is one epoch;
    what goes is the barrier's own trip (2 x epochs + 1 before)."""
    with ShardedEngine(mix_plan(seed=11, cores=4), shards=2) as engine:
        seen = _commands(engine)
        engine.advance(5_000.0)
        assert len(seen) == 10 + 1
        assert all(m["cmd"] == "epoch" for m in seen)
        assert sum(len(m["barrier"] or ()) for m in seen) > 0


@pytest.mark.parametrize("backend", ["inline", "mp"])
def test_a_window_ends_at_the_first_instant_after_an_op(backend):
    def plan():
        return spin_plan(cores=4).migrate(at=1_250.0, thread="spin0",
                                          src=0, dst=3)

    with ShardedEngine(plan(), shards=2, backend=backend) as engine:
        seen = _commands(engine)
        engine.advance(5_000.0)
        assert [(m["start"], m["horizon"], m["inclusive"]) for m in seen] \
            == [(0.0, 1_300.0, False), (1_300.0, 5_000.0, False),
                (5_000.0, 5_000.0, True)]
        # The respawn rides the second window's carried barrier.
        assert [[(p["kind"], p["target"]) for p in m["barrier"] or ()]
                for m in seen] == [[], [("spawn", 3)], []]
        assert _digests(engine) == _oracle(plan(), [5_000.0])


def test_held_stop_point_payloads_cap_the_next_window_at_one_epoch():
    plan = spin_plan(cores=2).migrate(at=300.0, thread="spin0", src=0, dst=1)
    with ShardedEngine(plan, shards=2) as engine:
        engine.advance(300.0)  # the op fires in the inclusive stop
        seen = _commands(engine)
        engine.advance(1_000.0)
        assert [m["horizon"] for m in seen] == [400.0, 1_000.0, 1_000.0]
        assert len(seen[1]["barrier"]) == 1


# -- the lookahead is trapped, not trusted -------------------------------------


def test_a_payload_inside_a_window_called_quiet_is_an_error(monkeypatch):
    plan = mix_plan(seed=11, cores=4)
    monkeypatch.setattr(
        plan, "quiet_horizon",
        lambda now, until, epoch_ms, max_epochs=None: until)
    with ShardedEngine(plan, shards=2) as engine:
        with pytest.raises(ShardError) as excinfo:
            engine.advance(2_000.0)
    message = str(excinfo.value)
    assert "core 1 emitted a 'call' payload" in message
    assert "epoch ending at 500.0ms" in message
    assert "0.0..2000.0ms" in message


def test_a_slice_horizon_off_the_command_grid_is_an_error():
    with ShardedEngine(spin_plan(cores=2), shards=2) as engine:
        with pytest.raises(ShardError, match="not on the 100.0ms epoch grid"):
            engine._backend.run_epoch(250.0, 100.0)


def test_a_barrier_is_due_only_where_the_cores_stand():
    with ShardedEngine(spin_plan(cores=2), shards=2) as engine:
        engine.advance(200.0)
        with pytest.raises(ShardError, match="cores stand at 200.0ms"):
            engine._backend.barrier(100.0, [])


# -- obs and supervision see every epoch, not every window ---------------------

#: ``spin_plan(cores=4)`` to 4 000 ms under obs, measured at the commit
#: before windows existed (per-epoch protocol, every backend agreed).
SPIN_OBS_REPORT = \
    "cc6da2101e06f2f9f44426aa42adc1889bc2bfd07ef53974a13d227d686e32c2"
SPIN_OBS_TRACE = \
    "fdb432bd12a5120fcefad7af1f2abbfa618a31313fcb2d66bc1e65160a0fa247"


@pytest.mark.parametrize("backend,shards", [
    ("single", 1), ("inline", 1), ("inline", 2), ("inline", 4),
    ("mp", 1), ("mp", 2), ("mp", 4)])
@pytest.mark.parametrize("step", [4_000.0, 100.0])
def test_quiet_plan_obs_outputs_are_the_per_epoch_protocols(backend, shards,
                                                            step):
    with ShardedEngine(spin_plan(cores=4), shards=shards, backend=backend,
                       obs=True) as engine:
        while engine.now < 4_000.0:
            engine.advance(engine.now + step)
        assert len(engine.obs) == 40
        assert engine.obs.barrier_instants() \
            == [{"time": 100.0 * k, "payloads": 0} for k in range(1, 40)]
        assert engine.obs_report()["canonical_sha256"] == SPIN_OBS_REPORT
        trace = json.loads(engine.stitched_trace())
        assert trace["metadata"]["sha256"] == SPIN_OBS_TRACE


def test_attached_tracer_sees_every_epoch_of_a_window():
    tracer = SpanTracer()
    with ShardedEngine(spin_plan(cores=2), shards=2) as engine:
        engine.attach_telemetry(tracer)
        engine.advance(1_000.0)
    barriers = [span.start for span in tracer.spans
                if span.track == "barrier"]
    assert barriers == [100.0 * k for k in range(1, 11)]


def _supervised(plan, until, host_faults=None):
    with ShardedEngine(plan, shards=2, backend="mp",
                       policy=FAST, host_faults=host_faults) as engine:
        engine.advance(until)
        return (_digests(engine), engine.recovery_summary(),
                list(engine._backend._log))


def test_supervised_log_holds_one_entry_per_window():
    digests, recovery, log = _supervised(spin_plan(cores=4), 2_000.0)
    assert digests == _oracle(spin_plan(cores=4), [2_000.0])
    assert [(m["horizon"], m["inclusive"]) for m in log] \
        == [(2_000.0, False), (2_000.0, True)]
    assert recovery["events"] == []


def test_kill_at_every_epoch_means_one_slice_windows():
    """``EVERY_EPOCH`` has a fault on every slice index, so no window
    may swallow one: five epochs and a stop are six commands, six
    kills, six restarts -- what the per-epoch protocol did."""
    digests, recovery, log = _supervised(spin_plan(cores=4), 500.0,
                                         kill_every_epoch(2))
    assert digests == _oracle(spin_plan(cores=4), [500.0])
    assert len(log) == 6
    assert recovery["restarts"] == [6, 0]
    assert [event["epoch"] for event in recovery["events"]
            if event["kind"] == "fault.armed"] == list(range(6))


def test_rebalancing_keeps_windows_and_stops_and_kills_bit_exact():
    """Each rebalance instant ends a window (loads ride its reply, moves
    its barrier); stops, pipes and a worker killed every epoch change
    nothing."""
    want = _oracle(chaos_plan(), [12_000.0])
    with ShardedEngine(chaos_plan(), shards=2) as engine:
        seen = _commands(engine)
        assert _digests(engine.advance(12_000.0)) == want
    assert [(m["horizon"], m.get("loads")) for m in seen
            if m["cmd"] == "epoch" and not m["inclusive"]] \
        == [(1_000.0 * k, True) for k in range(1, 13)]
    for stops in ([1_000.0, 12_000.0], [500.0 * k for k in range(1, 25)]):
        assert _driven(chaos_plan(), stops) == want
    digests, recovery, _ = _supervised(chaos_plan(), 5_000.0,
                                       kill_every_epoch(2))
    assert digests == _oracle(chaos_plan(), [5_000.0])
    assert recovery["restarts"] == [11, 0]  # ten epochs and the stop


def test_a_fault_that_would_sit_mid_window_heads_its_own_command():
    faults = HostFaultPlan([HostFault("kill", shard=0, epoch=7)])
    digests, recovery, log = _supervised(spin_plan(cores=4), 2_000.0, faults)
    assert digests == _oracle(spin_plan(cores=4), [2_000.0])
    # Slices 0-6, then 7-19 with the fault at their head, then the stop.
    assert [(m["start"], m["horizon"], m["inclusive"]) for m in log] \
        == [(0.0, 700.0, False), (700.0, 2_000.0, False),
            (2_000.0, 2_000.0, True)]
    assert recovery["restarts"] == [1, 0]
    assert recovery["events"]
    assert {event["epoch"] for event in recovery["events"]} == {7}


# -- differential against the single-loop oracle --------------------------------

QUANTUM = 100.0
#: The first is not exact in binary (30.000000000000004): its barrier
#: instants depend on being summed the same way everywhere.
EPOCHS_MS = (0.3 * QUANTUM, 100.0, 250.0)
MAX_EPOCHS = 24


@st.composite
def _universes(draw):
    """(plan, grid-aligned stop points): spinners and sleepers on 2-4
    cores, perhaps an RPC channel, up to three migrate/crash ops whose
    ``at`` may sit exactly on a barrier or exactly on a stop point."""
    cores = draw(st.integers(2, 4))
    epoch_ms = draw(st.sampled_from(EPOCHS_MS))
    rpc = draw(st.booleans())
    plan = ShardPlan(seed=draw(st.integers(1, 10_000)), cores=cores,
                     quantum=QUANTUM, epoch_ms=epoch_ms)
    spinners = []
    for core in range(cores):
        for index in range(draw(st.integers(1, 3))):
            spinners.append((f"spin{core}.{index}", core))
            plan.add_thread(core, "spin", spinners[-1][0],
                            tickets=float(draw(st.integers(1, 9))),
                            chunk_ms=draw(st.sampled_from([7.0, 20.0])))
        if draw(st.booleans()):
            plan.add_thread(core, "sleeper", f"sleep{core}", tickets=5.0,
                            compute_ms=5.0, sleep_ms=45.0)
    if rpc:
        plan.add_channel("svc", home=0)
        plan.add_thread(0, "rpc_server", "server", tickets=20.0,
                        channel="svc", work_ms=4.0)
        for core in range(1, cores):
            plan.add_thread(core, "rpc_client", f"client{core}", tickets=10.0,
                            channel="svc", compute_ms=10.0, sleep_ms=30.0)
    ticks = draw(st.lists(st.integers(0, MAX_EPOCHS), min_size=1, max_size=5))
    stops = [tick * epoch_ms for tick in sorted(ticks)]
    instants = st.one_of(
        st.integers(0, MAX_EPOCHS).map(lambda tick: tick * epoch_ms),
        st.sampled_from(stops),
        st.floats(0.0, MAX_EPOCHS * epoch_ms, allow_nan=False))
    # Never the RPC server's core: its clients have no one else to call.
    crashable = list(range(1 if rpc else 0, cores))
    for _ in range(draw(st.integers(0, 3))):
        if draw(st.booleans()):
            core = draw(st.sampled_from(crashable))
            elsewhere = [None, *(k for k in range(cores) if k != core)]
            plan.crash(draw(instants), core, draw(st.sampled_from(elsewhere)))
        else:
            name, src = draw(st.sampled_from(spinners))
            plan.migrate(at=draw(instants), thread=name, src=src,
                         dst=draw(st.integers(0, cores - 1)))
    return plan, stops


@settings(max_examples=60, deadline=None)
@given(universe=_universes(), shards=st.sampled_from([1, 2, 4]))
def test_windows_reproduce_the_single_loop_oracle(universe, shards):
    plan, stops = universe
    want = _oracle(plan, stops)
    assert _driven(plan, stops, shards=shards) == want
    if plan.epoch_ms.is_integer():
        # Exact instants: stopping anywhere equals never stopping.
        assert _driven(plan, stops[-1:], shards=shards) == want


@settings(max_examples=6, deadline=None)
@given(universe=_universes())
def test_windows_reproduce_the_oracle_across_pipes(universe):
    plan, stops = universe
    assert _driven(plan, stops, shards=2, backend="mp") \
        == _oracle(plan, stops)
