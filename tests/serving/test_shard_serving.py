"""The partitioned arena: plan round-trips and cross-backend equivalence."""

from __future__ import annotations

import math
import re

import pytest

from repro.checkpoint.statetree import tree_checksum
from repro.errors import ShardError
from repro.serving.shardplan import serving_plan
from repro.shard.engine import ShardedEngine
from repro.shard.plan import ShardPlan


class TestPlan:
    def test_plan_validates_and_round_trips_json(self):
        plan = serving_plan(seed=31, cores=2, requests_per_class=60)
        clone = ShardPlan.from_dict(plan.to_dict())
        assert clone.checksum() == plan.checksum()

    def test_per_core_arrival_seeds_are_distinct(self):
        plan = serving_plan(seed=31, cores=2, requests_per_class=60)
        seeds = [thread["args"]["seed"]
                 for core in range(plan.cores)
                 for thread in plan.threads_on(core)
                 if thread["name"].startswith("pump:")]
        assert len(seeds) == len(set(seeds)) == 6  # 3 classes x 2 cores

    def test_slo_flag_adds_a_controller_per_core(self):
        plan = serving_plan(seed=31, cores=2, requests_per_class=60,
                            slo=True)
        slo_threads = [thread["name"]
                       for core in range(plan.cores)
                       for thread in plan.threads_on(core)
                       if thread["body"] == "serving_slo"]
        assert sorted(slo_threads) == ["slo:c0", "slo:c1"]


def _checksums(backend, shards, horizon=2000.0):
    plan = serving_plan(seed=31, cores=2, requests_per_class=60, slo=True)
    with ShardedEngine(plan, shards=shards, backend=backend) as engine:
        engine.advance(horizon)
        return (tree_checksum(engine.merged_stream()),
                tree_checksum(engine.snapshot_state()))


class TestBackendEquivalence:
    def test_single_and_inline_agree_bit_exactly(self):
        """The acceptance criterion at small scale: the partitioned
        arena's merged event stream and final state are identical
        whether the cores run in one loop or interleaved shards."""
        assert _checksums("single", 1) == _checksums("inline", 2)

    def test_same_backend_replays_identically(self):
        assert _checksums("inline", 2) == _checksums("inline", 2)


class TestMalformedThreadArgs:
    """Thread args are plan data; a malformed one is refused when the
    core builds the thread, by field and thread name.  Each case was
    accepted (``count=-1``, NaN rates and times, a negative
    ``back_ms``) or raised a bare ``ValueError`` (a string count)."""

    @pytest.mark.parametrize("thread, field, value", [
        ("pump:gold@c0", "count", -1),
        ("pump:gold@c0", "count", "x"),
        ("pump:silver@c0", "admit_rate_per_s", math.nan),
        ("pump:silver@c0", "rate_per_s", math.inf),
        ("fe:gold:c0w0", "front_ms", math.nan),
        ("fe:bronze:c0w1", "back_ms", -3.0),
        ("slo:c0", "min_samples", "x"),
        ("slo:c0", "epoch_ms", math.nan)])
    def test_a_bad_arg_names_its_field_and_thread(self, thread, field,
                                                  value):
        plan = serving_plan(seed=31, cores=1, requests_per_class=10,
                            slo=True)
        spec, = (spec for spec in plan.threads if spec["name"] == thread)
        spec["args"][field] = value
        with pytest.raises(ShardError,
                           match=f"^thread '{re.escape(thread)}': {field} "
                                 f"must be"):
            ShardedEngine(plan, shards=1, backend="single").close()
