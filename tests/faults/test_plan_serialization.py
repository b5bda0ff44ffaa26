"""Fault plans as checkpointable state: to_dict / from_dict round trips."""

import json

import pytest

from repro.errors import FaultError
from repro.faults import FaultPlanBuilder
from repro.faults.plan import FaultEvent, FaultKind, FaultPlan


def default_plan(seed):  # with and without params, out of time order
    return (FaultPlanBuilder(seed).drop_ipc("k", at=30.0, duration=5.0)
            .kill_thread("w1", at=10.0).build())


class TestFaultEventSerialization:
    def test_round_trip(self):
        event = FaultEvent(1500.0, FaultKind.IPC_DROP, "node0",
                           {"drop_rate": 0.5, "duration": 100.0})
        rebuilt = FaultEvent.from_dict(event.to_dict())
        assert rebuilt.time == event.time
        assert rebuilt.kind == event.kind
        assert rebuilt.target == event.target
        assert rebuilt.params == event.params

    def test_to_dict_is_json_serializable(self):
        event = FaultEvent(10.0, FaultKind.THREAD_KILL, "w1")
        data = event.to_dict()
        assert json.loads(json.dumps(data)) == data

    def test_malformed_dicts_rejected(self):
        good = FaultEvent(10.0, FaultKind.THREAD_KILL, "w1").to_dict()
        for broken in (
            {k: v for k, v in good.items() if k != "kind"},
            dict(good, kind="meteor-strike"),
            dict(good, time="soon"),
            "not a dict",
        ):
            with pytest.raises(FaultError):
                FaultEvent.from_dict(broken)


class TestFaultPlanSerialization:
    def test_round_trip_preserves_order_and_seed(self):
        plan = default_plan(seed=2718)
        rebuilt = FaultPlan.from_dict(plan.to_dict())
        assert rebuilt.seed == plan.seed
        assert [e.describe() for e in rebuilt] == \
            [e.describe() for e in plan]

    def test_round_trip_survives_json(self):
        plan = default_plan(seed=7)
        rebuilt = FaultPlan.from_dict(json.loads(json.dumps(plan.to_dict())))
        assert rebuilt.to_dict() == plan.to_dict()

    def test_malformed_plans_rejected(self):
        good = default_plan(seed=1).to_dict()
        for broken in (
            {k: v for k, v in good.items() if k != "events"},
            dict(good, events="nope"),
            "not a dict",
        ):
            with pytest.raises(FaultError):
                FaultPlan.from_dict(broken)
