"""``mp`` workers started from a cold interpreter (``spawn``,
``forkserver``) as well as by ``fork``.

A cold worker re-imports everything it runs: a body entry resolved by
import (the ``"module:attr"`` serving bodies of ``BODY_REGISTRY``) or a
package export that resolves wrongly breaks there first, never under
``fork``, which inherits the parent's modules.
"""

from __future__ import annotations

import multiprocessing

import pytest

from repro.checkpoint.statetree import tree_checksum
from repro.serving.shardplan import serving_plan
from repro.shard.engine import ShardedEngine
from repro.shard.plan import mix_plan

PLANS = {
    "mix": (lambda: mix_plan(seed=11, cores=4), 2000.0),
    "serving": (lambda: serving_plan(seed=31, cores=2, requests_per_class=60,
                                     slo=True), 2000.0),
}


@pytest.fixture(params=multiprocessing.get_all_start_methods())
def start_method(request):
    """The process-wide default start method for the test, then back to
    the platform default."""
    multiprocessing.set_start_method(request.param, force=True)
    yield request.param
    multiprocessing.set_start_method(None, force=True)


def _digest(name: str, backend: str) -> str:
    make_plan, horizon = PLANS[name]
    with ShardedEngine(make_plan(), shards=2, backend=backend) as engine:
        engine.advance(horizon)
        return tree_checksum({"stream": engine.merged_stream(),
                              "state": engine.snapshot_state()})


@pytest.mark.parametrize("name", sorted(PLANS))
def test_mp_matches_inline_under_every_start_method(name, start_method):
    assert _digest(name, "mp") == _digest(name, "inline")
