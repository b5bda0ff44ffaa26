"""Tests for fault plans: validation, ordering, and seed determinism."""

import pytest

from repro.errors import FaultError
from repro.faults.plan import FaultEvent, FaultKind, FaultPlan, FaultPlanBuilder


class TestFaultEvent:
    def test_describe_is_stable_and_sorted(self):
        event = FaultEvent(1500.0, FaultKind.IPC_DROP, "node0",
                           {"drop_rate": 0.5, "duration": 100.0})
        assert event.describe() == \
            "t=1500 ipc-drop node0 drop_rate=0.5 duration=100.0"

    def test_describe_without_time(self):
        event = FaultEvent(1500.0, FaultKind.THREAD_KILL, "w0")
        assert event.describe(with_time=False) == "thread-kill w0"
        assert event.describe() == "t=1500 thread-kill w0"


class TestFaultPlan:
    def test_events_sorted_by_time(self):
        plan = FaultPlan([
            FaultEvent(200.0, FaultKind.THREAD_KILL, "b"),
            FaultEvent(100.0, FaultKind.THREAD_KILL, "a"),
        ], seed=1)
        assert [e.time for e in plan] == [100.0, 200.0]

    def test_same_time_events_keep_declaration_order(self):
        plan = FaultPlan([
            FaultEvent(100.0, FaultKind.THREAD_KILL, "a"),
            FaultEvent(100.0, FaultKind.THREAD_KILL, "b"),
        ], seed=1)
        assert [e.target for e in plan] == ["a", "b"]

    def test_rejects_unknown_kind_and_negative_time(self):
        with pytest.raises(FaultError):
            FaultPlan([FaultEvent(0.0, "meteor-strike", "node0")], seed=1)
        with pytest.raises(FaultError):
            FaultPlan([FaultEvent(-1.0, FaultKind.THREAD_KILL, "w0")],
                      seed=1)

    def test_of_kind_filters_in_order(self):
        plan = (FaultPlanBuilder(seed=3)
                .kill_thread("w0", at=50.0)
                .clock_skew("k", at=60.0, factor=2.0, duration=5.0)
                .kill_thread("w1", at=10.0)
                .build())
        kills = plan.of_kind(FaultKind.THREAD_KILL)
        assert [e.target for e in kills] == ["w1", "w0"]
        assert len(plan.of_kind(FaultKind.CLOCK_SKEW)) == 1

    def test_signature_includes_seed_and_every_event(self):
        plan = (FaultPlanBuilder(seed=9)
                .kill_thread("worker", at=5.0)
                .build())
        signature = plan.signature()
        assert signature.splitlines()[0] == "seed=9"
        assert "thread-kill worker" in signature
        assert len(signature.splitlines()) == 1 + len(plan)


class TestBuilderValidation:
    def test_add_rejects_bad_parameters(self):
        builder = FaultPlanBuilder()
        with pytest.raises(FaultError):
            builder.add(0.0, "bogus-kind", "node0")
        with pytest.raises(FaultError):
            builder.add(-5.0, FaultKind.THREAD_KILL, "w0")
        with pytest.raises(FaultError):
            builder.add(0.0, FaultKind.THREAD_KILL, "")

    def test_clock_skew_and_jitter_validation(self):
        builder = FaultPlanBuilder()
        with pytest.raises(FaultError):
            builder.clock_skew("node0", at=0.0, factor=0.0, duration=10.0)
        with pytest.raises(FaultError):
            builder.clock_skew("node0", at=0.0, factor=2.0, duration=0.0)
        with pytest.raises(FaultError):
            builder.timer_jitter("node0", at=0.0, amplitude_ms=0.0,
                                 duration=10.0)

    def test_ipc_fault_validation(self):
        builder = FaultPlanBuilder()
        with pytest.raises(FaultError):
            builder.drop_ipc("node0", at=0.0, duration=10.0, drop_rate=0.0)
        with pytest.raises(FaultError):
            builder.drop_ipc("node0", at=0.0, duration=10.0, drop_rate=1.5)
        with pytest.raises(FaultError):
            builder.drop_ipc("node0", at=0.0, duration=10.0, max_attempts=0)
        with pytest.raises(FaultError):
            builder.delay_ipc("node0", at=0.0, duration=10.0, delay_ms=0.0)
        with pytest.raises(FaultError):
            builder.delay_ipc("node0", at=0.0, duration=10.0, delay_ms=5.0,
                              jitter_ms=-1.0)

    def test_disk_errors_validation(self):
        with pytest.raises(FaultError):
            FaultPlanBuilder().disk_errors("d", at=0.0, duration=10.0,
                                           error_rate=0.0)
        with pytest.raises(FaultError):
            FaultPlanBuilder().disk_errors("d", at=0.0, duration=0.0)

