"""Host-fault plans and arming semantics (no processes involved)."""

from __future__ import annotations

import json

import pytest

from repro.errors import ShardError
from repro.shard.hostfaults import (
    EVERY_EPOCH,
    HostFault,
    HostFaultPlan,
    HostFaultSchedule,
    PRESETS,
    chaos_plan,
    kill_every_epoch,
    load_host_faults,
)


# -- validation ----------------------------------------------------------------


def test_unknown_kind_is_rejected():
    with pytest.raises(ShardError, match="unknown host fault kind"):
        HostFault("meteor", shard=0, epoch=0)


def test_negative_shard_is_rejected():
    with pytest.raises(ShardError, match="shard must be >= 0"):
        HostFault("kill", shard=-1, epoch=0)


def test_bad_kill_point_is_rejected():
    with pytest.raises(ShardError, match="point"):
        HostFault("kill", shard=0, epoch=0, point="mid")


def test_slow_requires_positive_delay():
    with pytest.raises(ShardError, match="delay_s"):
        HostFault("slow", shard=0, epoch=0)


def test_plan_validate_for_rejects_out_of_range_shards():
    plan = HostFaultPlan([HostFault("kill", shard=3, epoch=0)])
    with pytest.raises(ShardError, match="only 2 shard"):
        plan.validate_for(2)
    plan.validate_for(4)  # fine at full width


# -- serialization -------------------------------------------------------------


def test_plan_json_round_trip(tmp_path):
    plan = chaos_plan(shards=4)
    path = tmp_path / "faults.json"
    path.write_text(json.dumps(plan.to_dict()), encoding="utf-8")
    loaded = HostFaultPlan.from_file(str(path))
    assert loaded.to_dict() == plan.to_dict()
    assert len(loaded) == len(plan)


def test_from_file_rejects_non_json(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json", encoding="utf-8")
    with pytest.raises(ShardError, match="not JSON"):
        HostFaultPlan.from_file(str(path))


@pytest.mark.parametrize("data, complaint", [
    ([], "must be a dict: list"),
    ({"faults": 3}, "'faults' must be a list: int"),
    ({"faults": {"kind": "kill"}}, "'faults' must be a list: dict"),
    ({"faults": ["kill"]}, "host fault must be a dict: str"),
    ({"faults": [{"kind": "explode", "shard": 0}]}, "explode"),
    ({"faults": [{"kind": "kill", "shard": "x", "epoch": 0}]},
     "shard must be an integer: 'x'"),
    ({"faults": [{"kind": "kill", "shard": None, "epoch": 0}]},
     "shard must be an integer: None"),
    ({"faults": [{"kind": "kill", "shard": True, "epoch": 0}]},
     "shard must be an integer: True"),
    ({"faults": [{"kind": "kill", "shard": 0, "epoch": 1.7}]},
     "epoch must be an integer: 1.7"),
    ({"faults": [{"kind": "kill", "shard": 0, "epoch": False}]},
     "epoch must be an integer: False"),
    ({"faults": [{"kind": "slow", "shard": 0, "epoch": 0,
                  "delay_s": float("nan")}]}, "delay_s must be a finite"),
    ({"faults": [{"kind": "slow", "shard": 0, "epoch": 0,
                  "delay_s": float("inf")}]}, "delay_s must be a finite"),
    ({"faults": [{"kind": "slow", "shard": 0, "epoch": 0,
                  "delay_s": "0.5"}]}, "delay_s must be a finite"),
])
def test_from_dict_names_the_malformed_field(data, complaint):
    with pytest.raises(ShardError, match=complaint):
        HostFaultPlan.from_dict(data)


def test_from_file_names_a_missing_path(tmp_path):
    with pytest.raises(ShardError, match="absent.json.* cannot be read"):
        load_host_faults(str(tmp_path / "absent.json"), 2)


def test_load_host_faults_resolves_presets_and_paths(tmp_path):
    assert len(load_host_faults("kill-every-epoch", 4)) == 1
    assert len(load_host_faults("chaos", 4)) == 6
    path = tmp_path / "plan.json"
    path.write_text(json.dumps(kill_every_epoch().to_dict()),
                    encoding="utf-8")
    assert len(load_host_faults(str(path), 1)) == 1


def test_load_host_faults_validates_against_width(tmp_path):
    path = tmp_path / "wide.json"
    path.write_text(json.dumps(
        HostFaultPlan([HostFault("kill", shard=5, epoch=0)]).to_dict()),
        encoding="utf-8")
    with pytest.raises(ShardError, match="only 2 shard"):
        load_host_faults(str(path), 2)


def test_presets_registry_matches_functions():
    assert set(PRESETS) == {"kill-every-epoch", "chaos"}


# -- arming --------------------------------------------------------------------


def test_each_entry_fires_once_per_epoch():
    schedule = HostFaultSchedule(
        HostFaultPlan([HostFault("kill", shard=0, epoch=2)]))
    assert schedule.arm(0, 1) == []          # wrong epoch
    assert schedule.arm(1, 2) == []          # wrong shard
    armed = schedule.arm(0, 2)
    assert [fault["kind"] for fault in armed] == ["kill"]
    assert schedule.arm(0, 2) == []          # retry runs clean
    assert schedule.armed == 1


def test_every_epoch_fires_once_per_epoch_index():
    schedule = HostFaultSchedule(kill_every_epoch())
    for epoch in range(3):
        assert schedule.arm(0, epoch)        # first attempt faults
        assert schedule.arm(0, epoch) == []  # the retry does not
    assert schedule.armed == 3


def test_double_fault_is_two_identical_entries():
    """A crash during recovery is encoded by duplicating the entry:
    the retried exchange arms the second copy."""
    fault = HostFault("kill", shard=0, epoch=0)
    schedule = HostFaultSchedule(HostFaultPlan([fault, fault]))
    assert schedule.arm(0, 0)                # first attempt
    assert schedule.arm(0, 0)                # crash during recovery
    assert schedule.arm(0, 0) == []          # third attempt runs clean


def test_at_most_one_fault_armed_per_exchange():
    plan = HostFaultPlan([HostFault("kill", shard=0, epoch=0),
                          HostFault("wedge", shard=0, epoch=0)])
    schedule = HostFaultSchedule(plan)
    assert [fault["kind"] for fault in schedule.arm(0, 0)] == ["kill"]
    assert [fault["kind"] for fault in schedule.arm(0, 0)] == ["wedge"]


def test_empty_schedule_arms_nothing():
    schedule = HostFaultSchedule(None)
    assert schedule.arm(0, 0) == []
    assert schedule.armed == 0


def test_every_epoch_sentinel_is_negative_one():
    assert EVERY_EPOCH == -1
