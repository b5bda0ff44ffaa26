"""ShardPlan validation, serialization, and topology placement."""

from __future__ import annotations

import ast

import pytest

from repro.errors import ShardError
from repro.shard.plan import CORE_SEED_STRIDE, ShardPlan, mix_plan, spin_plan
from repro.shard.topology import ShardTopology


# -- construction and validation --------------------------------------------


def test_plan_rejects_bad_seed_cores_and_grid():
    with pytest.raises(ShardError, match="seed"):
        ShardPlan(seed=0)
    with pytest.raises(ShardError, match="core"):
        ShardPlan(cores=0)
    with pytest.raises(ShardError, match="positive"):
        ShardPlan(quantum=0.0)
    with pytest.raises(ShardError, match="positive"):
        ShardPlan(epoch_ms=-1.0)


def test_plan_rejects_unknown_body_and_core():
    with pytest.raises(ShardError, match="unregistered body"):
        ShardPlan(cores=2).add_thread(0, "no-such-body", "t", tickets=10.0)
    with pytest.raises(ShardError, match="unknown core"):
        ShardPlan(cores=2).add_thread(5, "spin", "t", tickets=10.0)


def test_plan_rejects_duplicate_names_and_nonpositive_tickets():
    with pytest.raises(ShardError, match="unique"):
        ShardPlan(cores=2).add_thread(0, "spin", "a", tickets=10.0) \
            .add_thread(1, "spin", "a", tickets=10.0)
    with pytest.raises(ShardError, match="positive tickets"):
        ShardPlan(cores=2).add_thread(1, "spin", "b", tickets=0.0)


def _seeded_plan() -> ShardPlan:
    return ShardPlan(cores=2).add_thread(0, "spin", "a", tickets=10.0)


def test_plan_rejects_bad_ops():
    with pytest.raises(ShardError, match="bad migrate"):
        _seeded_plan().migrate(at=100.0, thread="missing", src=0, dst=1)
    with pytest.raises(ShardError, match="bad crash"):
        _seeded_plan().crash(at=100.0, core=7)
    with pytest.raises(ShardError, match="non-negative"):
        _seeded_plan().migrate(at=-5.0, thread="a", src=0, dst=1)


def test_built_in_crashes_evacuate_elsewhere_on_one_and_two_cores():
    from repro.experiments.chaos_fairness import chaos_plan

    # Building is the check: a crash evacuating onto itself is refused.
    mix_plan(cores=2, with_ops=True), chaos_plan(cores=2)
    assert {op.get("evacuate_to") for op in chaos_plan(cores=1).ops} == {None}


def test_plan_rejects_bad_placement():
    with pytest.raises(ShardError, match="placement"):
        ShardPlan(cores=2, placement={5: 0})


_SPIN = {"core": 0, "body": "spin", "name": "a", "tickets": 1.0}


@pytest.mark.parametrize("data, named", [
    ({"cores": "x"}, "plan cores"),
    ({"cores": None}, "plan cores"),
    ({"seed": "s"}, "plan seed"),
    ({"seed": float("nan")}, "plan seed"),
    ({"quantum": "q"}, "plan quantum"),
    ({"quantum": float("nan")}, "plan quantum"),
    ({"epoch_ms": float("inf")}, "plan epoch_ms"),
    ({"threads": 5}, "plan threads"),
    ({"threads": [5]}, "plan threads"),
    ({"channels": [3]}, "plan channels"),
    ({"ops": 5}, "plan ops"),
    ({"threads": [dict(_SPIN, tickets="x")]}, "thread 'a' tickets"),
    ({"threads": [dict(_SPIN, tickets=None)]}, "thread 'a' tickets"),
    ({"threads": [dict(_SPIN, name=["a"])]}, "thread names"),
    ({"threads": [dict(_SPIN, body=["spin"])]}, "unregistered body"),
    ({"channels": [{"name": ["svc"], "home": 0}]}, "channel names"),
    ({"ops": [{"op": ["crash"]}]}, "unknown plan op"),
    ({"ops": [{"op": "crash", "at": "x", "core": 0}]}, "crash op 'at'"),
    ({"threads": [_SPIN], "ops": [{"op": "migrate", "at": 1.0,
                                   "thread": ["a"], "src": 0, "dst": 0}]},
     "bad migrate op"),
    ({"placement": 5}, "plan placement"),
    ({"placement": {"a": 1}}, "plan placement"),
    ({"placement": {"0": None}}, "plan placement"),
    ({"epoch_ms": 500.0, "rebalance_ms": 750.0}, "plan rebalance_ms"),
    ({"threads": [dict(_SPIN, pinned="yes")]}, "thread 'a' pinned"),
    ({"cores": 2, "ops": [{"op": "restart", "at": 1.0, "core": 2}]},
     "bad restart op"),
])
def test_from_dict_refuses_malformed_fields_by_name(data, named):
    """Plans arrive as JSON from files and pipes: a field of the wrong
    type is a ShardError naming it, never a bare ValueError / TypeError
    from a constructor three frames down."""
    with pytest.raises(ShardError, match=named):
        ShardPlan.from_dict(data)


def _rejected(build) -> str:
    with pytest.raises(ShardError) as caught:
        build()
    return str(caught.value)


def test_incremental_checks_raise_what_the_full_pass_raises():
    """Every malformed ``add_*`` is refused with the message the
    constructor's whole-plan pass gives the same entry, and leaves the
    plan as it was."""
    plan = (ShardPlan(cores=2).add_channel("svc", home=0)
            .add_thread(0, "spin", "a", tickets=10.0))
    before = plan.checksum()
    base = plan.to_dict()
    malformed = [
        ("threads", "thread spec on unknown core",
         lambda: plan.add_thread(5, "spin", "t", tickets=1.0)),
        ("threads", "thread names must be unique",
         lambda: plan.add_thread(0, "spin", "", tickets=1.0)),
        ("threads", "thread names must be unique",
         lambda: plan.add_thread(1, "spin", "a", tickets=1.0)),
        ("threads", "thread needs positive tickets",
         lambda: plan.add_thread(1, "spin", "t", tickets=0.0)),
        ("channels", "channel homed on unknown core",
         lambda: plan.add_channel("far", home=9)),
        ("channels", "channel names must be unique",
         lambda: plan.add_channel("", home=0)),
        ("channels", "channel names must be unique",
         lambda: plan.add_channel("svc", home=1)),
        ("ops", "op needs a non-negative time",
         lambda: plan.migrate(at=-1.0, thread="a", src=0, dst=1)),
        ("ops", "bad migrate op",
         lambda: plan.migrate(at=1.0, thread="ghost", src=0, dst=1)),
        ("ops", "bad migrate op",
         lambda: plan.migrate(at=1.0, thread="a", src=0, dst=2)),
        ("ops", "bad crash op",
         lambda: plan.crash(at=1.0, core=7)),
        ("ops", "bad crash op",
         lambda: plan.crash(at=1.0, core=0, evacuate_to=7)),
        ("ops", "bad crash op",
         lambda: plan.crash(at=1.0, core=1, evacuate_to=1)),
    ]
    for field, prefix, build in malformed:
        message = _rejected(build)
        assert message.startswith(prefix + ": {")
        assert plan.checksum() == before
        # The message quotes the rejected entry: graft it onto the
        # serialized plan and let the full pass judge it.
        entry = ast.literal_eval(message[len(prefix) + 2:])
        grafted = dict(base, **{field: base[field] + [entry]})
        assert _rejected(lambda: ShardPlan.from_dict(grafted)) == message
    # The two messages that do not end in the entry.
    nobody = {"core": 0, "body": "nope", "name": "t", "tickets": 1.0,
              "args": {}}
    message = _rejected(
        lambda: plan.add_thread(0, "nope", "t", tickets=1.0))
    assert message.startswith("unregistered body 'nope'; known: [")
    assert _rejected(lambda: ShardPlan.from_dict(
        dict(base, threads=base["threads"] + [nobody]))) == message
    assert _rejected(lambda: ShardPlan.from_dict(
        dict(base, ops=[{"op": "teleport", "at": 1.0}]))) \
        == "unknown plan op: {'op': 'teleport', 'at': 1.0}"
    assert plan.checksum() == before


def test_plan_build_validates_each_spec_once(monkeypatch):
    """4 000 ``add_thread`` calls run 4 000 per-spec checks, not the
    4 000 * 4 001 / 2 of re-validating the whole plan per call."""
    checked = []
    original = ShardPlan._check_thread

    def counting(plan, spec):
        checked.append(spec["name"])
        return original(plan, spec)

    monkeypatch.setattr(ShardPlan, "_check_thread", counting)
    plan = spin_plan(cores=4, spinners=1_000)
    assert len(plan.threads) == 4_000
    assert len(checked) == 4_000
    # from_dict is the full pass: once over every spec again.
    ShardPlan.from_dict(plan.to_dict())
    assert len(checked) == 8_000


# -- derived views -----------------------------------------------------------


def test_core_seeds_are_distinct_strided_streams():
    plan = ShardPlan(seed=7, cores=4)
    seeds = [plan.core_seed(core) for core in range(4)]
    assert seeds == [7 + CORE_SEED_STRIDE * core for core in range(4)]
    assert len(set(seeds)) == 4


def test_threads_on_and_ops_on_partition_by_source_core():
    plan = mix_plan(seed=11, cores=4, with_ops=True)
    names = {spec["name"] for core in range(4)
             for spec in plan.threads_on(core)}
    assert names == {spec["name"] for spec in plan.threads}
    # migrate is sourced on its src core, crash on the crashed core.
    assert [op["op"] for op in plan.ops_on(0)] == ["migrate"]
    assert [op["op"] for op in plan.ops_on(3)] == ["crash"]
    assert plan.ops_on(1) == [] and plan.ops_on(2) == []


# -- serialization ------------------------------------------------------------


def test_plan_round_trips_through_json_dict():
    import json

    plan = mix_plan(seed=11, cores=4, with_ops=True)
    plan.placement[3] = 0
    plan.rebalance_ms = 1_000.0
    plan.restart(at=3_000.0, core=3)
    plan.add_thread(1, "spin", "p", tickets=5.0, pinned=True)
    data = json.loads(json.dumps(plan.to_dict()))
    rebuilt = ShardPlan.from_dict(data)
    assert rebuilt.to_dict() == plan.to_dict()
    assert rebuilt.checksum() == plan.checksum()
    assert rebuilt.placement == {3: 0}


def test_checksum_is_sensitive_to_every_field():
    base = spin_plan(seed=97, cores=2, spinners=1).checksum()
    assert spin_plan(seed=98, cores=2, spinners=1).checksum() != base
    assert spin_plan(seed=97, cores=3, spinners=1).checksum() != base
    assert spin_plan(seed=97, cores=2, spinners=2).checksum() != base


# -- topology -----------------------------------------------------------------


def test_topology_default_is_modulo_hash():
    topo = ShardTopology(cores=5, shards=2)
    assert [topo.shard_of(c) for c in range(5)] == [0, 1, 0, 1, 0]
    assert topo.cores_of(0) == [0, 2, 4]
    assert topo.cores_of(1) == [1, 3]


def test_topology_placement_pins_cores():
    topo = ShardTopology(cores=4, shards=2, placement={3: 0})
    assert topo.shard_of(3) == 0
    assert topo.cores_of(0) == [0, 2, 3]
    assert topo.cores_of(1) == [1]


def test_topology_rejects_out_of_range():
    with pytest.raises(ShardError):
        ShardTopology(cores=0, shards=1)
    with pytest.raises(ShardError):
        ShardTopology(cores=2, shards=0)
    with pytest.raises(ShardError, match="placed on shard"):
        ShardTopology(cores=2, shards=2, placement={0: 5})
    topo = ShardTopology(cores=2, shards=2)
    with pytest.raises(ShardError):
        topo.shard_of(9)
    with pytest.raises(ShardError):
        topo.cores_of(9)


def test_placement_changes_execution_not_results():
    """Placement is pure configuration: pinning every core onto one
    shard must not move a single bit of the merged history."""
    from repro.shard.engine import ShardedEngine

    default = mix_plan(seed=11, cores=4)
    pinned = mix_plan(seed=11, cores=4)
    pinned.placement.update({0: 1, 1: 1, 2: 1, 3: 1})
    with ShardedEngine(default, shards=2) as a, \
            ShardedEngine(pinned, shards=2) as b:
        a.advance(2_000.0)
        b.advance(2_000.0)
        assert a.merged_stream() == b.merged_stream()
        # The state trees differ only in the plan checksum (placement
        # is part of plan identity), never in core state.
        assert a.snapshot_state()["cores"] == b.snapshot_state()["cores"]
