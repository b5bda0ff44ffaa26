"""Probe attribution and the SLO feedback loop, isolated and end-to-end."""

from __future__ import annotations

import math

import pytest

from repro.core.tickets import Ledger
from repro.errors import ReproError
from repro.serving.slo_controller import ClassLatencyProbe, SloController
from repro.serving.stats import ServingStats


class _FakeThread:
    """Just enough surface for the probe: a name and a wake instant."""

    def __init__(self, name, runnable_since=0.0):
        self.name = name
        self.runnable_since = runnable_since


class TestClassLatencyProbe:
    def test_attributes_latency_by_thread_name(self):
        stats = ServingStats()
        probe = ClassLatencyProbe(stats)
        # Hold references: the probe caches class by id(thread), so
        # fakes must stay alive like real threads do.
        threads = [_FakeThread("fe:gold:0", 10.0),
                   _FakeThread("fe:gold:1", 20.0),
                   _FakeThread("be:0", 0.0)]
        probe.on_dispatch(threads[0], 35.0)
        probe.on_dispatch(threads[1], 30.0)
        probe.on_dispatch(threads[2], 50.0)  # not a class
        digest = probe.digest("gold")
        assert digest.count == 2
        assert digest.max == 25.0
        assert stats.wake["gold"].count == 2
        assert "be" not in probe.window

    def test_a_class_has_one_wake_digest(self):
        """With stats, the probe's window is the stats' wake digest of
        the class: a sample is recorded once, and the controller's
        early look at a class with no samples yet does not split it."""
        stats = ServingStats()
        probe = ClassLatencyProbe(stats)
        assert probe.digest("gold").count == 0  # the controller, early
        thread = _FakeThread("fe:gold:0", 10.0)
        probe.on_dispatch(thread, 35.0)
        probe.on_dispatch(thread, 40.0)
        assert probe.digest("gold") is stats.wake["gold"]
        assert (stats.wake["gold"].count, stats.wake["gold"].total) \
            == (2, 55.0)

    def test_exit_drops_the_id_cache(self):
        probe = ClassLatencyProbe()
        thread = _FakeThread("fe:gold:0", 0.0)
        probe.on_dispatch(thread, 1.0)
        probe.on_exit(thread, 2.0)
        assert id(thread) not in probe._by_tid


def _controller(target=50.0):
    ledger = Ledger()
    currency = ledger.create_currency("gold")
    lever = ledger.create_ticket(100.0, fund=currency, tag="lever")
    probe = ClassLatencyProbe()
    controller = SloController(probe, min_samples=5)
    controller.add_class("gold", target, [lever])
    return controller, probe, lever


def _feed(probe, latency, count):
    for _ in range(count):
        probe.digest("gold").record(latency)


class TestSloController:
    def test_breach_inflates_toward_the_ceiling(self):
        controller, probe, lever = _controller(target=50.0)
        _feed(probe, 200.0, 10)
        controller.control(100.0)
        assert lever.amount == pytest.approx(130.0)
        assert controller.history[-1]["action"] == "inflate"
        # Keep breaching: multiplicative growth clamps at the ceiling.
        for epoch in range(30):
            _feed(probe, 200.0, 10)
            controller.control(200.0 + epoch)
        assert lever.amount == pytest.approx(1600.0)  # 16x default ceiling

    def test_comfort_deflates_back_to_the_floor(self):
        controller, probe, lever = _controller(target=50.0)
        _feed(probe, 200.0, 10)
        controller.control(100.0)
        assert lever.amount > 100.0
        for epoch in range(40):
            _feed(probe, 1.0, 10)  # far under comfort * target
            controller.control(200.0 + epoch)
        assert lever.amount == pytest.approx(100.0)  # floor = initial
        assert "deflate" in {row["action"] for row in controller.history}

    def test_windowing_uses_only_new_samples(self):
        controller, probe, lever = _controller(target=50.0)
        _feed(probe, 200.0, 10)
        controller.control(100.0)
        inflated = lever.amount
        # No new samples: the old breach must not count twice.
        controller.control(200.0)
        assert controller.history[-1]["action"] == "idle"
        assert lever.amount == inflated

    def test_idle_below_min_samples(self):
        controller, probe, lever = _controller(target=50.0)
        _feed(probe, 200.0, 3)  # < min_samples=5
        controller.control(100.0)
        assert controller.history[-1]["action"] == "idle"
        assert lever.amount == 100.0

    def test_recovery_epoch_reads_the_history(self):
        controller, probe, _ = _controller(target=50.0)
        assert controller.recovery_epoch("gold") is None
        _feed(probe, 200.0, 10)
        controller.control(100.0)  # breach
        assert controller.recovery_epoch("gold") is None
        _feed(probe, 10.0, 10)
        controller.control(200.0)  # met target after breach
        assert controller.recovery_epoch("gold") == 2

    @pytest.mark.parametrize("parameter", ["epoch_ms"])
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_a_non_finite_parameter_is_refused_by_name(self, parameter,
                                                       value):
        # ``nan <= 0`` is false: NaN used to pass every check.
        with pytest.raises(ReproError, match=parameter):
            SloController(ClassLatencyProbe(), **{parameter: value})

    # ``int()`` truncated a fractional count and raised a bare
    # ValueError on a string.
    @pytest.mark.parametrize("value", [2.5, "x", -1])
    def test_a_malformed_min_samples_is_refused_by_name(self, value):
        with pytest.raises(ReproError, match="^min_samples must be"):
            SloController(ClassLatencyProbe(), min_samples=value)

    @pytest.mark.parametrize("target", [math.nan, math.inf, 0.0])
    def test_a_malformed_target_is_refused(self, target):
        controller, _, _ = _controller()
        lever = Ledger().create_ticket(1.0, tag="x")
        with pytest.raises(ReproError, match="SLO target"):
            controller.add_class("silver", target, [lever])

    def test_state_tree_keeps_the_constants_keys(self):
        state = _controller()[0].snapshot_state()
        assert (state["inflate"], state["deflate"], state["comfort"]) \
            == (1.3, 0.85, 0.5)
        assert (state["classes"]["gold"]["floor"],
                state["classes"]["gold"]["ceiling"]) == (100.0, 1600.0)

    def test_duplicate_class_is_an_error(self):
        controller, _, _ = _controller()
        ledger = Ledger()
        lever = ledger.create_ticket(1.0, tag="x")
        with pytest.raises(ReproError, match="already registered"):
            controller.add_class("gold", 10.0, [lever])


class TestConvergenceEndToEnd:
    def test_breaching_class_recovers_within_epochs(self):
        """The ISSUE's acceptance property: under lottery at 1.5x
        overload, a class whose target is set below its natural p99
        breaches, the controller inflates its currency backing, and
        the windowed p99 recovers within a bounded number of epochs."""
        from repro.experiments.serving_tail import run_arena

        arena = run_arena("lottery", 1.5, 600, seed=2026, slo=True)
        controller = arena.controller
        recovery = controller.recovery_epoch("bronze")
        assert recovery is not None and recovery <= 12
        actions = [row["action"] for row in controller.history
                   if row["class"] == "bronze"]
        assert "inflate" in actions
        # The lever actually moved above its floor at some point.
        peak = max(row["amount_after"] for row in controller.history
                   if row["class"] == "bronze")
        assert peak > arena.controller.classes["bronze"].floor
