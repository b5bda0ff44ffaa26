"""Mp backend shutdown robustness: wedged and dead workers must not
hang ``close()``, and worker failures must carry real tracebacks."""

from __future__ import annotations

import os
import signal

import pytest

from repro.errors import ShardError
from repro.shard.engine import ShardedEngine
from repro.shard.plan import mix_plan, spin_plan


def _mp_engine(**kwargs):
    return ShardedEngine(spin_plan(seed=3, cores=2), shards=2,
                         backend="mp", **kwargs)


def test_close_does_not_hang_on_a_wedged_worker():
    """A SIGSTOPped worker never acks the stop command; close() must
    escalate terminate -> kill within its timeout instead of blocking
    forever at conn.recv()."""
    engine = _mp_engine()
    engine.advance(200.0)
    backend = engine._backend
    backend.close_timeout_s = 1.0
    victim = backend._workers[0]
    os.kill(victim.pid, signal.SIGSTOP)
    engine.close()  # must return promptly, not hang
    assert not victim.is_alive()


def test_close_tolerates_an_already_dead_worker():
    """A SIGKILLed worker leaves a broken pipe behind; close() must
    swallow the EOF/broken-pipe instead of raising through __del__."""
    engine = _mp_engine()
    engine.advance(200.0)
    backend = engine._backend
    backend.close_timeout_s = 2.0
    workers = list(backend._workers)
    os.kill(workers[1].pid, signal.SIGKILL)
    workers[1].join(timeout=5.0)
    engine.close()
    assert all(not worker.is_alive() for worker in workers)


def test_worker_failure_ships_type_and_traceback():
    """The worker's error reply must carry the exception type and the
    worker-side traceback text, so the parent-side ShardError names
    the real cause instead of a bare repr."""
    with ShardedEngine(mix_plan(seed=11, cores=4), shards=2,
                       backend="mp") as engine:
        backend = engine._backend
        backend.barrier(0.0, [{"kind": "warp", "target": 1, "src": 0,
                               "seq": 1}])
        with pytest.raises(ShardError) as excinfo:
            backend.run_epoch(500.0)
    message = str(excinfo.value)
    assert "shard worker" in message
    assert "running 'barrier'" in message or "running 'epoch'" in message
    assert "Traceback (most recent call last)" in message
    assert "Error" in message  # the exception type name survives
