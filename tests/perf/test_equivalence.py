"""Same-seed equivalence: the hot-path optimizations change nothing.

Every optimization this package carries -- the funding cache in
``repro.core.tickets``, dirty-member Fenwick refresh in
``repro.schedulers.lottery_policy``, the args-based event queue --
claims to be *bit-exact*: same seed, same dispatch stream, same
checkpoint state tree.  The replay-stream and state-tree sha256 of four
reference runs are pinned to the values the pre-optimization code
produced; any behavioural drift in the dispatch loop, however subtle,
changes these digests.

The goldens say *that* a run drifted, not which cache lied.  The
independent references are ``TestNominalCacheDifferential``
(``tests/test_properties_graph.py``: every cached valuation against a
from-scratch walk after each generated mutation) and
``TestTreeStoredValues`` (``tests/serving/test_arena.py``: every clean
tree member's stored value against its live funding after each
dispatch of the serving arena) and ``TestDeferredSettleDifferential``
(``tests/core/test_lottery.py``: the tree against the
refresh-per-write tree it replaced, kept there whole, after every
generated call).
"""

from __future__ import annotations

import functools

import pytest

from repro.checkpoint.capture import capture_tree
from repro.checkpoint.registry import build_recipe
from repro.checkpoint.statetree import tree_checksum

#: (recipe, args, horizon, stream sha256, state-tree sha256) captured
#: from the pre-optimization implementation (linear funding recompute,
#: full Fenwick refresh per draw, tuple-heap event queue), except the
#: ``chaos-fairness`` row, the sharded chaos plan's own, and the
#: ``shard-mix`` row, captured from the recipe before it was built over
#: ``repro.shard.plan.PLANS``.
GOLDEN = [
    ("lottery-mix", {"seed": 1}, 30_000.0,
     "f9bec250fd208e5f77038c91e36f6ee4ef861498a780684eb275608f2323d65e",
     "53ce052ace9d065f9956e1f575eab25b021856e88ba276dc9ff5dabc58e0aa46"),
    ("lottery-mix", {"seed": 42, "use_tree": True}, 30_000.0,
     "fd67e659a70bba30fffb444d18d7d2a4ebed2a0d320a9f51bad84aea938f42f2",
     "f8618ed4c3e28bbb4eb2b8106ad88bdd0e1abdb86511f5bef04b58ece6aa8225"),
    ("lottery-mix",
     {"seed": 7, "fundings": [300.0, 150.0, 75.0, 25.0], "quantum": 50.0},
     20_000.0,
     "5c956b33db05d9d07737fca69f6f8dfd2310c512cb8424fcfef8e36509915cbc",
     "8401ab54ec1ccd35099825c5dce1978d7bcedbe2541d48f3622969aa77564176"),
    ("chaos-fairness", {"seed": 2718}, 60_000.0,
     "85e43acebb587bf79b88ca3f8da4b32e3c4f5ae7cff90cfca4d26e37a96f9ab8",
     "c26d8c9bda49a7cf3df978e2c3c86e29b279808f88bb98f3c67ded3ee1d8e88d"),
    ("shard-mix", {"seed": 11}, 4_000.0,
     "c940ff5a49d10011cda7ed9d78e35cb3b1cde587390e8bb1600929843ff96152",
     "b40d8740ebccd408805276c916acf49cb4ad388a8128b56259b7b3ae906c4b1c"),
]

_IDS = [f"{recipe}-{args.get('seed')}" for recipe, args, *_ in GOLDEN]


def _run(recipe: str, args: dict, until: float) -> tuple:
    """(stream checksum, state-tree checksum) of one reference run."""
    handle = build_recipe(recipe, args)
    handle.advance(until)
    return tree_checksum(handle.stream()), tree_checksum(capture_tree(handle))


@pytest.mark.parametrize("recipe, args, until, stream, state", GOLDEN,
                         ids=_IDS)
def test_optimized_run_matches_golden_checksums(recipe, args, until,
                                                stream, state):
    """The optimized hot paths reproduce the pre-optimization digests."""
    got_stream, got_state = _run(recipe, args, until)
    assert got_stream == stream, "dispatch stream diverged"
    assert got_state == state, "checkpoint state tree diverged"


def test_funding_cache_invalidates_on_ticket_mutation():
    """The cached funding answers exactly like a fresh recompute."""
    from repro.core.tickets import Ledger, TicketHolder

    ledger = Ledger()
    holder = TicketHolder("h")
    ticket = ledger.create_ticket(100.0, fund=holder)
    holder.start_competing()
    assert holder.funding() == pytest.approx(100.0)

    ticket.set_amount(250.0)
    assert holder.funding() == pytest.approx(250.0)

    ticket.deactivate()
    assert holder.funding() == 0
    ticket.activate()
    assert holder.funding() == pytest.approx(250.0)

    holder.stop_competing()
    assert holder.funding() == 0


def test_funding_cache_invalidates_through_currency_inflation():
    """Inflating a backing currency devalues downstream cached fundings."""
    from repro.core.tickets import Ledger, TicketHolder

    ledger = Ledger()
    task = ledger.create_currency("task")
    ledger.create_ticket(100.0, fund=task)  # base backing for "task"
    a = TicketHolder("a")
    b = TicketHolder("b")
    ledger.create_ticket(100.0, currency=task, fund=a)
    a.start_competing()
    assert a.funding() == pytest.approx(100.0)

    # Inflation: issuing more task tickets halves the per-unit value.
    ledger.create_ticket(100.0, currency=task, fund=b)
    b.start_competing()
    assert a.funding() == pytest.approx(50.0)
    assert b.funding() == pytest.approx(50.0)


# -- sharded-engine equivalence ----------------------------------------------
#
# The acceptance gate of the repro.shard subsystem: for N in {1, 2, 4}
# on both in-process backends (and the mp backend where it can run),
# the merged replay stream and the canonical state tree are sha256-
# identical to the single-loop oracle.  The goldens are pinned from the
# ``single`` backend, which is observationally the classic one-event-
# loop engine.

#: (plan kwargs, horizon, stream sha256, state-tree sha256).
SHARD_GOLDEN = [
    ({"seed": 11, "cores": 4, "with_ops": False}, 5_000.0,
     "1ad4542e8b23429e8543210742da0f60a81f8d4bd7ad5450d03ea64cd54fc628",
     "ad0639f9d2194e6d88541adf8ae1df5068d70c26761daa867285829911e1e96a"),
    ({"seed": 11, "cores": 4, "with_ops": True}, 5_000.0,
     "0e9079418ef1061de15edc826758958a4fba86d03470efa6007560516da49ebd",
     "a30a3c21d3741446b4115004483361887da4ff80400cb1c0b4dd6ff054201dab"),
    # Dispatch-heavy: 10,000 spinners on the Fenwick-tree lottery, thin
    # 100 ms epochs, no cross-core traffic.
    ({"plan": "spin", "seed": 97, "cores": 4, "spinners": 2_500,
      "quantum": 10.0, "epoch_ms": 100.0, "use_tree": True}, 4_000.0,
     "34d49f5ea82b0c7f99a6e99e701e0508ca3efea8897a766e59d6c89ce853714c",
     "2a079fabd3ba6deda1ad373a377f00783e70e426076f44330f14c6744abd4b1c"),
    # Rebalancing, a pinned thread, a core's crash and restart.
    ({"plan": "chaos", "seed": 2718, "cores": 3}, 60_000.0,
     "85e43acebb587bf79b88ca3f8da4b32e3c4f5ae7cff90cfca4d26e37a96f9ab8",
     "70694edd093c88ab787f39624bc4e51cdeeef4334ad47ba806554ef8d17b3d1a"),
]

_SHARD_IDS = ["mix", "mix-ops", "spin-tree", "chaos"]


@functools.lru_cache(maxsize=None)
def _golden_plan(plan_items: tuple):
    """Built once per case and shared by its seven backend/shard runs."""
    from repro.experiments.chaos_fairness import chaos_plan
    from repro.shard.plan import mix_plan, spin_plan

    kwargs = dict(plan_items)
    factory = {"mix": mix_plan, "spin": spin_plan,
               "chaos": chaos_plan}[kwargs.pop("plan", "mix")]
    return factory(**kwargs)


def _run_sharded(plan_kwargs: dict, until: float, backend: str,
                 shards: int) -> tuple:
    from repro.shard.engine import ShardedEngine

    plan = _golden_plan(tuple(sorted(plan_kwargs.items())))
    with ShardedEngine(plan, shards=shards, backend=backend) as engine:
        engine.advance(until)
        return (tree_checksum(engine.merged_stream()),
                tree_checksum(engine.snapshot_state()))


@pytest.mark.parametrize("plan_kwargs, until, stream, state", SHARD_GOLDEN,
                         ids=_SHARD_IDS)
def test_single_loop_oracle_matches_shard_goldens(plan_kwargs, until,
                                                  stream, state):
    """The oracle itself reproduces the pinned digests (anchor)."""
    got_stream, got_state = _run_sharded(plan_kwargs, until, "single", 1)
    assert got_stream == stream, "single-loop stream diverged from golden"
    assert got_state == state, "single-loop state tree diverged from golden"


@pytest.mark.parametrize("shards", [1, 2, 4])
@pytest.mark.parametrize("backend", ["inline", "mp"])
@pytest.mark.parametrize("plan_kwargs, until, stream, state", SHARD_GOLDEN,
                         ids=_SHARD_IDS)
def test_sharded_run_is_bit_identical_to_single_loop(plan_kwargs, until,
                                                     stream, state,
                                                     backend, shards):
    """sharded(N) == single-loop, bit for bit, on every backend."""
    got_stream, got_state = _run_sharded(plan_kwargs, until, backend, shards)
    assert got_stream == stream, (
        f"{backend}/shards={shards}: merged stream diverged")
    assert got_state == state, (
        f"{backend}/shards={shards}: state tree diverged")
