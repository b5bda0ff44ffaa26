"""The coordinator folds slice N while the workers run slice N+1.

``ShardedEngine`` hands a slice's obs frames to the aggregator (fold and
SLO judgement) only once the next slice command is on every worker's
pipe, and before it waits for the replies; the in-process backends fold
first.  The fold order is the sequential one, so what the plane reports
must not move: the digests below were read from the coordinator that
folded every slice before sending the next command, over stop/resume
advances, on the ``mix`` and the SLO-controlled ``serving`` plans.
"""

from __future__ import annotations

import json

import pytest

from repro.checkpoint.statetree import tree_checksum
from repro.errors import ShardError
from repro.serving.shardplan import serving_plan
from repro.shard.backends import SupervisorPolicy
from repro.shard.engine import ShardedEngine
from repro.shard.hostfaults import HostFault, HostFaultPlan, kill_every_epoch
from repro.shard.plan import mix_plan
from repro.telemetry.flight import load_bundle

PLANS = {
    "mix": lambda: mix_plan(seed=11, cores=4),
    "serving": lambda: serving_plan(seed=31, cores=2, requests_per_class=60,
                                    slo=True),
}

#: Stop points: a window, a stop inside the next one, a stop on its end.
ADVANCES = (1_000.0, 2_500.0, 3_000.0)

#: Report, SLO breach list, stitched trace and aggregated metrics
#: sha256 prefixes, and the breach count, as the sequential fold read
#: them on every backend.
GOLDEN = {
    "mix": ("09b3b19088f79e13", "4f53cda18c2baa0c", "43f7e78465a444cc",
            "e47e0eb67b13ac92", 0),
    "serving": ("8caf527da20451be", "b44f4d533a371d51", "8139458d047cb314",
                "b887091bdaf8b7a0", 8),
}

#: (backend, killed every epoch).
BACKENDS = [("single", False), ("inline", False), ("mp", False),
            ("mp", True)]


@pytest.mark.parametrize("plan", sorted(PLANS))
@pytest.mark.parametrize("backend,faulted", BACKENDS,
                         ids=["single", "inline", "mp", "mp-kill"])
def test_every_backend_observes_what_the_sequential_fold_did(plan, backend,
                                                             faulted):
    with ShardedEngine(PLANS[plan](), shards=2, backend=backend, obs=True,
                       host_faults=kill_every_epoch(2) if faulted
                       else None) as engine:
        for until in ADVANCES:
            engine.advance(until)
        breaches = engine.slo_report()["breaches"]
        got = (engine.obs_report()["canonical_sha256"][:16],
               tree_checksum(breaches)[:16],
               json.loads(engine.stitched_trace())["metadata"]["sha256"][:16],
               tree_checksum(engine.aggregated_metrics())[:16],
               len(breaches))
    assert got == GOLDEN[plan]


def test_slice_n_is_folded_while_slice_n_plus_1_is_on_the_pipes():
    with ShardedEngine(mix_plan(seed=11, cores=4), shards=2, backend="mp",
                       obs=True) as engine:
        backend, order = engine._backend, []
        send, finish = backend._send, backend._finish_exchange
        observe = engine.obs.observe

        def sending(shard, message):
            order.append(("send", message["horizon"], message["inclusive"]))
            return send(shard, message)

        def finishing(shard, *args):
            order.append(("reply", shard))
            return finish(shard, *args)

        def folding(time, *args, **kwargs):
            order.append(("fold", time, kwargs["kind"]))
            return observe(time, *args, **kwargs)

        backend._send, backend._finish_exchange = sending, finishing
        engine.obs.observe = folding
        engine.advance(1_500.0)
        backend._send = send
    replies = [("reply", 0), ("reply", 1)]
    assert order == [
        ("send", 500.0, False), ("send", 500.0, False), *replies,
        ("send", 1_000.0, False), ("send", 1_000.0, False),
        ("fold", 500.0, "epoch"), *replies,
        ("send", 1_500.0, False), ("send", 1_500.0, False),
        ("fold", 1_000.0, "epoch"), *replies,
        # The stop point: its command is the last slice to overlap.
        ("send", 1_500.0, True), ("send", 1_500.0, True),
        ("fold", 1_500.0, "epoch"), *replies,
        ("fold", 1_500.0, "stop")]


def test_an_error_in_slice_n_plus_1_dumps_slice_n_folded(tmp_path):
    """The worker of shard 0 dies in slice 2 with no retry budget: the
    bundle holds slices 0 and 1, folded, exactly as the sequential
    coordinator wrote it (the traceback text aside, which names code
    lines)."""
    with pytest.raises(ShardError, match="at epoch 2") as excinfo:
        with ShardedEngine(mix_plan(seed=11, cores=4), shards=2,
                           backend="mp",
                           policy=SupervisorPolicy(max_retries=0,
                                                   degrade=False),
                           host_faults=HostFaultPlan(
                               [HostFault("kill", shard=0, epoch=2)]),
                           obs=True, flight_dir=str(tmp_path)) as engine:
            engine.advance(2_000.0)
    assert len(engine.obs) == 2
    bundle = load_bundle(excinfo.value.flight_bundle)
    assert (bundle["time"], bundle["context"]["barriers"]) == (1_000.0, 2)
    assert tree_checksum({key: value for key, value in bundle.items()
                          if key not in ("error", "sha256")}) \
        == ("c10ebba4fd7ebba187657c8ae7631a46"
            "56e19481c381d87fc8d313c97a3152e6")
