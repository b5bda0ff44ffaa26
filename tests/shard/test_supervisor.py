"""Mp backend supervision: recovery under every host-fault kind, with
bit-exact equivalence against the undisturbed single-loop run.

Every equivalence test follows the acceptance shape: run the universe
once undisturbed (single-loop oracle), once on mp workers with faults
injected, and require sha256-identical merged replay streams and final
state trees.  Host faults must never change a byte of the simulated
history -- that is the whole contract.
"""

from __future__ import annotations

import math
import os
import signal

import pytest

from repro.checkpoint.statetree import tree_checksum
from repro.errors import ShardError
from repro.shard.backends import SupervisorPolicy
from repro.shard.engine import ShardedEngine
from repro.shard.hostfaults import (
    HostFault,
    HostFaultPlan,
    kill_every_epoch,
)
from repro.shard.plan import mix_plan
from repro.telemetry import Telemetry

UNTIL = 1_500.0  # three 500ms epochs: enough for cross-core traffic

#: Fast recovery for tests: tight backoff, still-generous deadline.
FAST = SupervisorPolicy(max_retries=3, deadline_s=15.0,
                        backoff_base_s=0.01, backoff_max_s=0.05)

#: Short deadline for faults that must *expire* it (wedge, drop).
SHORT_DEADLINE = SupervisorPolicy(max_retries=3, deadline_s=1.5,
                                  backoff_base_s=0.01, backoff_max_s=0.05)


def _plan():
    return mix_plan(seed=11, cores=4)


def _oracle():
    with ShardedEngine(_plan(), shards=1, backend="single") as engine:
        engine.advance(UNTIL)
        return (tree_checksum(engine.merged_stream()),
                tree_checksum(engine.snapshot_state()))


def _supervised(host_faults=None, policy=FAST, shards=4, telemetry=None):
    engine = ShardedEngine(_plan(), shards=shards, backend="mp",
                           policy=policy,
                           host_faults=host_faults, telemetry=telemetry)
    with engine:
        engine.advance(UNTIL)
        return (tree_checksum(engine.merged_stream()),
                tree_checksum(engine.snapshot_state()),
                engine.recovery_summary())


# -- policy --------------------------------------------------------------------


def test_policy_validates_its_fields():
    with pytest.raises(ShardError, match="max_retries"):
        SupervisorPolicy(max_retries=-1)
    with pytest.raises(ShardError, match="deadline_s"):
        SupervisorPolicy(deadline_s=0.0)
    with pytest.raises(ShardError, match="backoff_factor"):
        SupervisorPolicy(backoff_factor=0.5)
    with pytest.raises(ShardError, match=">= 0"):
        SupervisorPolicy(backoff_base_s=-1.0)
    # Not finite: the exchange wait and the backoff sleep cannot take it.
    for field in ("deadline_s", "backoff_base_s", "backoff_factor",
                  "backoff_max_s"):
        for value in (math.nan, math.inf, -math.inf):
            with pytest.raises(ShardError, match=field):
                SupervisorPolicy(**{field: value})
    with pytest.raises(ShardError, match="deadline_s"):
        SupervisorPolicy(deadline_s=1e7)  # past the longest poll(2) wait
    for retries in (1.5, True, "3", None):
        with pytest.raises(ShardError, match="max_retries"):
            SupervisorPolicy(max_retries=retries)


def test_policy_backoff_is_exponential_and_capped():
    policy = SupervisorPolicy(backoff_base_s=0.1, backoff_factor=2.0,
                              backoff_max_s=0.3)
    assert policy.backoff_for(1) == pytest.approx(0.1)
    assert policy.backoff_for(2) == pytest.approx(0.2)
    assert policy.backoff_for(3) == pytest.approx(0.3)  # capped
    assert policy.backoff_for(9) == pytest.approx(0.3)
    with pytest.raises(ShardError, match="1-based"):
        policy.backoff_for(0)


# -- engine wiring guards ------------------------------------------------------


@pytest.mark.parametrize("backend", ["single", "inline"])
def test_policy_and_host_faults_require_the_mp_backend(backend):
    """Only mp has worker processes to supervise: anything else refuses
    a policy or a host-fault plan instead of ignoring it."""
    for kwargs in ({"policy": FAST}, {"host_faults": kill_every_epoch()}):
        with pytest.raises(ShardError, match="backend='mp' only"):
            ShardedEngine(_plan(), shards=2, backend=backend, **kwargs)


def test_out_of_range_fault_plan_is_rejected_at_construction():
    with pytest.raises(ShardError, match="only 2 shard"):
        ShardedEngine(_plan(), shards=2, backend="mp",
                      host_faults=HostFaultPlan(
                          [HostFault("kill", shard=3, epoch=0)]))


def test_unsupervised_recovery_summary_is_empty():
    with ShardedEngine(_plan(), shards=2) as engine:
        summary = engine.recovery_summary()
    assert summary["degraded"] is False
    assert summary["events"] == []


# -- no-fault equivalence and the acceptance plan ------------------------------


def test_supervised_run_without_faults_matches_oracle():
    want_stream, want_state = _oracle()
    stream, state, recovery = _supervised()
    assert (stream, state) == (want_stream, want_state)
    assert sum(recovery["restarts"]) == 0
    assert recovery["degraded"] is False


def test_a_worker_killed_from_outside_between_advances_is_recovered():
    """No host-fault plan: a plain mp run whose worker is SIGKILLed by
    someone else between two ``advance`` calls respawns and replays it
    at the next exchange, and still matches the oracle bit for bit."""
    want = _oracle()
    with ShardedEngine(_plan(), shards=2, backend="mp") as engine:
        engine.advance(500.0)
        victim = engine._backend._workers[1]
        os.kill(victim.pid, signal.SIGKILL)
        victim.join(timeout=5.0)
        engine.advance(UNTIL)
        got = (tree_checksum(engine.merged_stream()),
               tree_checksum(engine.snapshot_state()))
        recovery = engine.recovery_summary()
    assert got == want
    assert recovery["restarts"] == [0, 1]
    assert recovery["degraded"] is False


def test_worker_killed_at_every_epoch_barrier_is_bit_exact():
    """The acceptance bar: a 4-shard supervised run with a worker
    SIGKILLed at every epoch barrier completes with merged stream and
    final state sha256-identical to the undisturbed single-loop run."""
    want_stream, want_state = _oracle()
    stream, state, recovery = _supervised(host_faults=kill_every_epoch(4))
    assert (stream, state) == (want_stream, want_state)
    assert sum(recovery["restarts"]) >= 3  # one per epoch slice at least
    assert recovery["degraded"] is False
    kinds = {event["kind"] for event in recovery["events"]}
    assert {"fault.armed", "fault.detected", "worker.restart",
            "epoch.retry"} <= kinds


# -- one test per fault kind ---------------------------------------------------


def _single_fault(kind, **kwargs):
    return HostFaultPlan([HostFault(kind, shard=1, epoch=1, **kwargs)])


def test_crash_mid_epoch_recovers_bit_exact():
    """point='post' kills after the epoch's work, before the reply --
    the classic crash mid-epoch with committed work lost."""
    want = _oracle()
    stream, state, recovery = _supervised(host_faults=_single_fault("kill"))
    assert (stream, state) == want
    assert recovery["restarts"][1] == 1


def test_crash_before_epoch_work_recovers_bit_exact():
    want = _oracle()
    stream, state, recovery = _supervised(
        host_faults=_single_fault("kill", point="pre"))
    assert (stream, state) == want
    assert recovery["restarts"][1] == 1


def test_hung_worker_trips_the_deadline_and_recovers():
    want = _oracle()
    stream, state, recovery = _supervised(
        host_faults=_single_fault("wedge"), policy=SHORT_DEADLINE)
    assert (stream, state) == want
    assert recovery["restarts"][1] == 1
    hangs = [event for event in recovery["events"]
             if event["kind"] == "fault.detected"]
    assert hangs and hangs[0]["failure"] == "hang"


def test_corrupt_frame_is_rejected_and_recovered():
    want = _oracle()
    stream, state, recovery = _supervised(host_faults=_single_fault("corrupt"))
    assert (stream, state) == want
    detected = [event for event in recovery["events"]
                if event["kind"] == "fault.detected"]
    assert detected and detected[0]["failure"] == "corrupt"


def test_dropped_reply_expires_the_deadline_and_recovers():
    want = _oracle()
    stream, state, recovery = _supervised(
        host_faults=_single_fault("drop"), policy=SHORT_DEADLINE)
    assert (stream, state) == want
    assert recovery["restarts"][1] == 1


def test_slow_reply_within_deadline_needs_no_recovery():
    want = _oracle()
    stream, state, recovery = _supervised(
        host_faults=_single_fault("slow", delay_s=0.05))
    assert (stream, state) == want
    assert sum(recovery["restarts"]) == 0
    assert recovery["faults_armed"] == 1


def test_double_fault_crash_during_recovery_still_recovers():
    """Two identical kill entries: the retried exchange crashes too;
    the third attempt completes.  Budget (3) is not exhausted."""
    want = _oracle()
    fault = HostFault("kill", shard=0, epoch=1)
    stream, state, recovery = _supervised(
        host_faults=HostFaultPlan([fault, fault]))
    assert (stream, state) == want
    assert recovery["restarts"][0] == 2
    assert recovery["degraded"] is False


# -- budget exhaustion and degradation -----------------------------------------


def test_budget_exhaustion_degrades_to_inline_bit_exact():
    """max_retries=0 means the first kill exhausts the budget: the
    run must migrate to the inline backend mid-run and still finish
    sha256-identical to the oracle."""
    want_stream, want_state = _oracle()
    policy = SupervisorPolicy(max_retries=0, deadline_s=15.0,
                              backoff_base_s=0.01)
    stream, state, recovery = _supervised(
        host_faults=kill_every_epoch(4), policy=policy)
    assert (stream, state) == (want_stream, want_state)
    assert recovery["degraded"] is True
    assert "retry budget" in recovery["degrade_reason"]
    kinds = [event["kind"] for event in recovery["events"]]
    assert "backend.degrade" in kinds


def test_budget_exhaustion_without_degradation_raises():
    policy = SupervisorPolicy(max_retries=0, deadline_s=15.0,
                              backoff_base_s=0.01, degrade=False)
    with ShardedEngine(_plan(), shards=4, backend="mp",
                       policy=policy,
                       host_faults=kill_every_epoch(4)) as engine:
        with pytest.raises(ShardError, match="retry budget"):
            engine.advance(UNTIL)


def test_degraded_engine_keeps_serving_and_closes_cleanly():
    policy = SupervisorPolicy(max_retries=0, deadline_s=15.0,
                              backoff_base_s=0.01)
    with ShardedEngine(_plan(), shards=4, backend="mp",
                       policy=policy,
                       host_faults=kill_every_epoch(4)) as engine:
        engine.advance(500.0)
        assert engine.recovery_summary()["degraded"] is True
        engine.advance(UNTIL)  # inline mode keeps advancing
        assert engine.merged_stream()
        assert engine.shard_kernels() == []  # stays mp-shaped


def test_discarded_workers_are_killed_not_waited_on():
    """A worker being discarded has no state worth saving, and under
    ``fork`` a live one never reads EOF from its closed pipe (siblings
    spawned later hold inherited copies of the parent's end), so
    waiting for it to exit only burns ``close_timeout_s`` before the
    terminate rung: every discarded worker must die by SIGKILL."""
    policy = SupervisorPolicy(max_retries=0, deadline_s=15.0,
                              backoff_base_s=0.01)
    fault = HostFaultPlan([HostFault("kill", shard=0, epoch=1)])
    with ShardedEngine(_plan(), shards=4, backend="mp",
                       policy=policy, host_faults=fault) as engine:
        workers = list(engine._backend._workers)  # three stay live
        engine.advance(UNTIL)
        assert engine.recovery_summary()["degraded"] is True
    assert [worker.exitcode for worker in workers] == [-signal.SIGKILL] * 4


# -- deterministic errors are not host faults ----------------------------------


def test_deterministic_worker_error_is_not_retried():
    """A worker *exception* (bad barrier payload) would recur on every
    retry; it must surface immediately with the real traceback, and
    the recovery machinery must not have burned any restarts."""
    with ShardedEngine(_plan(), shards=2, backend="mp",
                       policy=FAST) as engine:
        backend = engine._backend
        backend.barrier(0.0, [{"kind": "warp", "target": 1, "src": 0,
                               "seq": 1}])
        with pytest.raises(ShardError, match="shard worker"):
            backend.run_epoch(500.0)
        assert sum(backend.restarts) == 0


# -- telemetry -----------------------------------------------------------------


def test_recovery_events_flow_through_telemetry():
    telemetry = Telemetry()
    stream, state, recovery = _supervised(
        host_faults=_single_fault("kill"), telemetry=telemetry)
    restarts = telemetry.registry.counter("shard.worker.restart",
                                          {"shard": "1"})
    retries = telemetry.registry.counter("shard.epoch.retry",
                                         {"shard": "1"})
    assert restarts.value == 1.0
    assert retries.value == 1.0
    names = {span.name for span in telemetry.tracer.spans}
    assert "shard.worker.restart" in names
    assert "shard.fault.detected" in names
