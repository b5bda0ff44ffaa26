"""Token-bucket admission: analytic refill, ticket pricing, determinism."""

from __future__ import annotations

import math

import pytest

from repro.errors import ReproError
from repro.serving.admission import (HEADROOM, AdmissionController,
                                     TokenBucket, admission_rates)
from repro.serving.arena import ArenaConfig
from repro.serving.shardplan import serving_plan
from repro.serving.tiers import DEFAULT_CLASSES, capacity_rps
from repro.workloads.arrivals import PoissonArrivals


class TestTokenBucket:
    def test_burst_then_shed_then_refill(self):
        bucket = TokenBucket(rate_per_s=10.0, burst=5.0)
        # Burst allowance admits the first five simultaneous arrivals.
        assert all(bucket.admit(0.0) for _ in range(5))
        assert not bucket.admit(0.0)
        assert (bucket.admitted, bucket.shed) == (5, 1)
        # 10/s refill: 300ms buys exactly three more tokens.
        assert all(bucket.admit(300.0) for _ in range(3))
        assert not bucket.admit(300.0)

    def test_refill_caps_at_burst(self):
        bucket = TokenBucket(rate_per_s=100.0, burst=2.0)
        bucket.admit(0.0)
        bucket.admit(10_000.0)  # a long idle gap refills to burst only
        assert bucket.tokens == pytest.approx(1.0)

    def test_stale_instants_refill_nothing(self):
        bucket = TokenBucket(rate_per_s=10.0, burst=1.0)
        assert bucket.admit(1_000.0)
        # An earlier instant must not rewind the clock or mint tokens.
        assert not bucket.admit(500.0)
        assert bucket.clock_ms == 1_000.0

    def test_validation(self):
        # A NaN or infinite refill rate used to admit everything.
        for rate in (0.0, math.nan, math.inf):
            with pytest.raises(ReproError, match="^refill rate"):
                TokenBucket(rate, 1.0)
        for burst in (0.5, math.nan, math.inf):
            with pytest.raises(ReproError, match="^burst"):
                TokenBucket(1.0, burst)


class TestAdmissionController:
    def test_rates_priced_by_ticket_share(self):
        controller = AdmissionController(
            100.0, {"gold": 400, "silver": 200, "bronze": 100})
        rates = {row["class"]: row["rate_per_s"]
                 for row in controller.rows()}
        assert rates["gold"] == pytest.approx(100.0 * HEADROOM * 400 / 700)
        assert rates["silver"] == pytest.approx(rates["gold"] / 2.0)
        assert rates["bronze"] == pytest.approx(rates["gold"] / 4.0)

    def test_unknown_class_is_an_error(self):
        controller = AdmissionController(10.0, {"gold": 1})
        with pytest.raises(ReproError, match="no admission bucket"):
            controller.admit("lead", 0.0)

    def test_shed_pattern_is_a_pure_function_of_the_trace(self):
        """Two controllers fed the same seeded trace shed identically --
        the property that keeps the shed pattern policy-independent."""

        def run():
            controller = AdmissionController(50.0, {"gold": 2, "bronze": 1})
            trace = PoissonArrivals(99, 120.0).take(400)
            return [controller.admit("bronze", at) for at in trace]

        first, second = run(), run()
        assert first == second
        assert False in first  # offered 120/s vs 20/s priced: sheds

    def test_snapshot_state_round_trips_counts(self):
        controller = AdmissionController(10.0, {"a": 1})
        controller.admit("a", 0.0)
        state = controller.snapshot_state()
        assert state["buckets"]["a"]["admitted"] == 1
        assert state["capacity_rps"] == 10.0


class TestAdmissionRates:
    def test_the_arena_and_the_plan_price_by_the_one_rule(self):
        """Both stacks' buckets come from ``admission_rates``: the
        arena's controller and each pump thread of the sharded plan."""
        shares = {spec.name: spec.tickets for spec in DEFAULT_CLASSES}
        rates = admission_rates(capacity_rps(DEFAULT_CLASSES), shares)
        config = ArenaConfig()
        controller = AdmissionController(config.capacity_rps(), shares)
        assert {name: (bucket.rate_per_s, bucket.burst)
                for name, bucket in controller.buckets.items()} == rates
        plan = serving_plan(seed=31, cores=2, requests_per_class=60)
        pumps = [thread["args"] for thread in plan.threads
                 if thread["body"] == "serving_pump"]
        assert len(pumps) == 6
        for args in pumps:
            assert (args["admit_rate_per_s"], args["admit_burst"]) \
                == rates[args["cls"]]

    @pytest.mark.parametrize("capacity, shares, message", [
        (math.nan, {"a": 1.0}, "capacity"), (10.0, {}, "at least one"),
        (10.0, {"a": 0.0}, "ticket shares")])
    def test_malformed_pricing_inputs_are_refused(self, capacity, shares,
                                                  message):
        with pytest.raises(ReproError, match=message):
            admission_rates(capacity, shares)
