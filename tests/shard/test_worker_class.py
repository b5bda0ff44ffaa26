"""``mp`` workers run in the host's ``SCHED_BATCH`` class.

A batch task does not preempt the running task when it wakes, so the
coordinator writes every shard's command before any worker takes its
CPU and the shards start together (``docs/SHARDING.md`` section 3).
Every worker enters the class in ``_worker_main``: the first spawn, a
worker respawned after a host fault, and workers under every start
method.  Where the switch is refused the worker runs as it would
without it, and the run is unchanged.
"""

from __future__ import annotations

import multiprocessing
import os

import pytest

from repro.checkpoint.statetree import tree_checksum
from repro.shard.backends import SupervisorPolicy
from repro.shard.engine import ShardedEngine
from repro.shard.hostfaults import HostFault, HostFaultPlan
from repro.shard.plan import spin_plan

pytestmark = pytest.mark.skipif(not hasattr(os, "SCHED_BATCH"),
                                reason="host has no SCHED_BATCH class")

UNTIL = 500.0  # five 100 ms epochs

FAST = SupervisorPolicy(max_retries=3, deadline_s=15.0,
                        backoff_base_s=0.01, backoff_max_s=0.05)


def _engine(backend="mp", **kwargs):
    return ShardedEngine(spin_plan(seed=3, cores=4), shards=2,
                         backend=backend, **kwargs)


def _classes(engine):
    return [os.sched_getscheduler(worker.pid)
            for worker in engine._backend._workers]


def _digest(engine):
    return tree_checksum({"stream": engine.merged_stream(),
                          "state": engine.snapshot_state()})


@pytest.fixture
def start_method(request):
    """The process-wide default start method for the test, then back to
    the platform default."""
    if request.param not in multiprocessing.get_all_start_methods():
        pytest.skip(f"host has no {request.param!r} start method")
    multiprocessing.set_start_method(request.param, force=True)
    yield request.param
    multiprocessing.set_start_method(None, force=True)


def test_fresh_workers_are_batch_class():
    with _engine() as engine:
        engine.advance(UNTIL)
        assert _classes(engine) == [os.SCHED_BATCH] * 2


def test_a_respawned_worker_is_batch_class():
    """A worker killed by a host fault comes back through the same
    entry point, so its replacement is a batch task too."""
    fault = HostFaultPlan([HostFault("kill", shard=1, epoch=1)])
    with _engine(policy=FAST, host_faults=fault) as engine:
        engine.advance(UNTIL)
        assert engine.recovery_summary()["restarts"] == [0, 1]
        assert _classes(engine) == [os.SCHED_BATCH] * 2


@pytest.mark.parametrize("start_method", ["fork", "spawn", "forkserver"],
                         indirect=True)
def test_workers_are_batch_class_under_every_start_method(start_method):
    with _engine() as engine:
        engine.advance(UNTIL)
        assert _classes(engine) == [os.SCHED_BATCH] * 2


@pytest.mark.parametrize("start_method", ["fork"], indirect=True)
def test_a_refused_switch_leaves_the_run_unchanged(start_method,
                                                   monkeypatch):
    """Forked workers inherit the patched ``os``: the switch raises,
    the worker stays in its parent's class, and the run is the same
    bytes with no recovery."""
    def refuse(*args):
        raise PermissionError("sched_setscheduler refused")

    monkeypatch.setattr(os, "sched_setscheduler", refuse)
    with _engine("inline") as engine:
        engine.advance(UNTIL)
        want = _digest(engine)
    with _engine() as engine:
        engine.advance(UNTIL)
        assert _classes(engine) == [os.sched_getscheduler(0)] * 2
        assert _digest(engine) == want
        assert engine.recovery_summary()["restarts"] == []
