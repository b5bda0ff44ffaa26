"""Built-in checkpoint recipes: the :data:`RECIPES` table.

A checkpoint names its recipe and stores its arguments, so each name
here, its parameters and their defaults are a file format.  Each
builder is deterministic (same args, same universe) and its arguments
round-trip through JSON -- both are requirements of the
restore-by-re-execution design (see :mod:`repro.checkpoint.registry`).

* ``lottery-mix`` -- one lottery kernel running heterogeneously funded
  spinners plus a sleeper; the smallest interesting system, used by the
  round-trip property tests.
* ``chaos-fairness`` -- the sharded engine running the ``chaos`` plan
  (spinners, a pinned victim, crash/restart ops, barrier-time
  rebalancing); the system the acceptance criterion crashes, restores,
  and replays.
* ``shard-mix`` -- the sharded multicore engine running the kitchen-
  sink ``mix`` plan (cross-core RPC; ``mix-ops`` with ``with_ops``, a
  scripted migration and crash); checkpoints taken at epoch barriers
  restore bit-exact on any backend/shard count because the merged
  stream is placement-invariant (see ``docs/SHARDING.md``).

The two sharded recipes are one builder over
:data:`repro.shard.plan.PLANS`.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional

from repro.checkpoint.registry import SimHandle
from repro.checkpoint.replay import ReplayRecorder

__all__ = ["RECIPES", "lottery_mix", "chaos_fairness", "shard_mix"]


def lottery_mix(seed: int = 1, quantum: float = 100.0,
                fundings: Optional[List[float]] = None,
                use_tree: bool = False,
                sleeper: bool = True) -> SimHandle:
    """A single lottery kernel: spinners at ``fundings``, one sleeper."""
    from repro.core.prng import ParkMillerPRNG
    from repro.core.tickets import Ledger
    from repro.kernel.kernel import Kernel
    from repro.kernel.syscalls import Compute, Sleep
    from repro.schedulers.lottery_policy import LotteryPolicy
    from repro.sim.engine import Engine

    if fundings is None:
        fundings = [400.0, 200.0, 100.0]
    engine = Engine()
    ledger = Ledger()
    recorder = ReplayRecorder()
    kernel = Kernel(
        engine,
        LotteryPolicy(ledger, prng=ParkMillerPRNG(seed), use_tree=use_tree),
        ledger=ledger,
        quantum=quantum,
        recorder=recorder,
    )

    def spinner(chunk_ms: float = 20.0):
        def body(ctx):
            while True:
                yield Compute(chunk_ms)

        return body

    def sleeper_body(ctx):
        while True:
            yield Compute(5.0)
            yield Sleep(50.0)

    for index, funding in enumerate(fundings):
        kernel.spawn(spinner(), f"spin{index}", tickets=float(funding))
    if sleeper:
        kernel.spawn(sleeper_body, "sleeper", tickets=150.0)
    return SimHandle(
        recipe="lottery-mix",
        args={"seed": seed, "quantum": quantum,
              "fundings": [float(f) for f in fundings],
              "use_tree": use_tree, "sleeper": sleeper},
        engine=engine,
        components={"engine": engine, "ledger": kernel.ledger,
                    "kernel": kernel, "recorder": recorder},
    )


def _sharded(recipe: str, plan: str, args: Dict[str, Any], shards: int = 1,
             backend: str = "inline") -> SimHandle:
    """A built-in plan on the sharded engine.  ``advance`` goes through
    :meth:`ShardedEngine.advance`, so restore re-executes epoch by epoch
    exactly like the original run, and times must land on the plan's
    epoch grid.  The engine snapshots no shard/backend identity, so a
    checkpoint written by the mp backend at 4 shards restores (and
    diffs clean) against an inline rebuild at 1."""
    from repro.shard.engine import ShardedEngine
    from repro.shard.plan import PLANS

    engine = ShardedEngine(PLANS[plan](args["seed"], args["cores"]),
                           shards=shards, backend=backend)
    return SimHandle(recipe=recipe, args=args, engine=engine,
                     components={"sharded": engine}, advance=engine.advance)


def chaos_fairness(seed: int = 2718, cores: int = 3) -> SimHandle:
    """The chaos experiment's plan (500 ms epoch grid)."""
    return _sharded("chaos-fairness", "chaos",
                    {"seed": seed, "cores": cores})


def shard_mix(seed: int = 11, cores: int = 4, shards: int = 2,
              backend: str = "inline", with_ops: bool = False) -> SimHandle:
    """The ``mix`` plan, ``mix-ops`` with ``with_ops`` (500 ms grid)."""
    return _sharded("shard-mix", "mix-ops" if with_ops else "mix",
                    {"seed": seed, "cores": cores, "shards": shards,
                     "backend": backend, "with_ops": with_ops},
                    shards, backend)


#: Recipe name -> builder; a checkpoint file names one of these.
RECIPES: Dict[str, Callable[..., SimHandle]] = {
    "lottery-mix": lottery_mix,
    "chaos-fairness": chaos_fairness,
    "shard-mix": shard_mix,
}
