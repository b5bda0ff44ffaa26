"""Built-in checkpoint recipes.

Importing this module registers the recipes the CLI and the test suite
use.  Each builder is deterministic (same args, same universe) and its
arguments round-trip through JSON -- both are requirements of the
restore-by-re-execution design (see :mod:`repro.checkpoint.registry`).

* ``lottery-mix`` -- one lottery kernel running heterogeneously funded
  spinners plus a sleeper; the smallest interesting system, used by the
  round-trip property tests.
* ``chaos-fairness`` -- the sharded engine running the chaos
  experiment's plan (spinners, a pinned victim, crash/restart ops,
  barrier-time rebalancing); the system the acceptance criterion
  crashes, restores, and replays.
* ``shard-mix`` -- the sharded multicore engine running the kitchen-
  sink ``mix_plan`` (cross-core RPC, optional scripted migration and
  crash); checkpoints taken at epoch barriers restore bit-exact on any
  backend/shard count because the merged stream is placement-invariant
  (see ``docs/SHARDING.md``).
"""

from __future__ import annotations

from typing import List, Optional

from repro.checkpoint.registry import SimHandle, register_recipe
from repro.checkpoint.replay import ReplayRecorder

__all__ = ["lottery_mix", "chaos_fairness", "shard_mix"]


@register_recipe("lottery-mix")
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


@register_recipe("chaos-fairness")
def chaos_fairness(seed: int = 2718, cores: int = 3) -> SimHandle:
    """The chaos experiment's plan on the inline sharded engine (see
    ``experiments.chaos_fairness``); times must land on its 500 ms
    epoch grid."""
    from repro.experiments.chaos_fairness import chaos_plan
    from repro.shard.engine import ShardedEngine

    engine = ShardedEngine(chaos_plan(seed=seed, cores=cores))
    return SimHandle(
        recipe="chaos-fairness",
        args={"seed": seed, "cores": cores},
        engine=engine,
        components={"sharded": engine},
        advance=engine.advance,
    )


@register_recipe("shard-mix")
def shard_mix(seed: int = 11, cores: int = 4, shards: int = 2,
              backend: str = "inline", with_ops: bool = False) -> SimHandle:
    """The sharded engine on ``mix_plan`` (cross-core RPC workload).

    ``advance`` goes through :meth:`ShardedEngine.advance`, so restore
    re-executes epoch-by-epoch exactly like the original run; times
    must land on the plan's epoch grid (500 ms for ``mix_plan``).  The
    engine deliberately snapshots no shard/backend identity, so a
    checkpoint written by the mp backend at 4 shards restores (and
    diffs clean) against an inline rebuild at 1 -- that equivalence is
    the subsystem's core claim.
    """
    from repro.shard.engine import ShardedEngine
    from repro.shard.plan import mix_plan

    plan = mix_plan(seed=seed, cores=cores, with_ops=with_ops)
    engine = ShardedEngine(plan, shards=shards, backend=backend)
    return SimHandle(
        recipe="shard-mix",
        args={"seed": seed, "cores": cores, "shards": shards,
              "backend": backend, "with_ops": with_ops},
        engine=engine,
        components={"sharded": engine},
        advance=engine.advance,
    )
