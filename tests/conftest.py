"""Shared pytest fixtures and helpers for the lottery-scheduling tests.

When ``REPRO_SANITIZE=1`` (defaulted on under CI), every kernel any
test constructs is instrumented with the runtime invariant sanitizer
(:mod:`repro.analysis.sanitizer`): ticket conservation, currency-graph
consistency, run-queue membership, and compensation-ticket lifetime are
re-checked after every scheduling quantum, so the property/statistical
suites double as end-to-end invariant proofs.  Set ``REPRO_SANITIZE=0``
to force it off; ``REPRO_SANITIZE_STRIDE=N`` checks every Nth quantum.
"""

from __future__ import annotations

import os
import sys
from collections import Counter

import pytest


def _sanitize_enabled() -> bool:
    value = os.environ.get("REPRO_SANITIZE")
    if value is None:
        # On by default in CI so the full suites run instrumented.
        return bool(os.environ.get("CI"))
    return value.strip().lower() not in ("", "0", "false", "no", "off")


if _sanitize_enabled():
    from repro.analysis.sanitizer import install_autosanitize

    install_autosanitize(
        stride=int(os.environ.get("REPRO_SANITIZE_STRIDE", "1")))

from repro.core.prng import ParkMillerPRNG
from repro.core.tickets import Ledger
from repro.kernel.kernel import Kernel
from repro.schedulers.lottery_policy import LotteryPolicy
from repro.sim.engine import Engine


@pytest.fixture
def ledger():
    """A fresh ticket/currency ledger."""
    return Ledger()


@pytest.fixture
def prng():
    """A deterministic Park-Miller stream."""
    return ParkMillerPRNG(12345)


@pytest.fixture
def engine():
    """A fresh discrete-event engine at t=0."""
    return Engine()


@pytest.fixture
def refreshes(monkeypatch):
    """Slots passed to ``TreeLottery._fenwick_refresh`` -- the one method
    through which a node above a slot is rewritten -- counted through a
    class-level wrapper, so every tree any code builds is seen."""
    from repro.core.lottery import TreeLottery

    calls = []
    inner = TreeLottery._fenwick_refresh

    def counted(self, slot):
        calls.append(slot)
        inner(self, slot)

    monkeypatch.setattr(TreeLottery, "_fenwick_refresh", counted)
    return calls


@pytest.fixture
def walks(monkeypatch):
    """Active-side ``Currency._invalidate_downstream`` walks -- each one
    iterates an issued list -- as the names of the currencies they
    started at, counted through a class-level wrapper (the nominal
    side, which activation never triggers, is left out)."""
    from repro.core.tickets import Currency

    started = []
    inner = Currency._invalidate_downstream

    def counted(self, nominal=False):
        if not nominal:
            started.append(self.name)
        inner(self, nominal)

    monkeypatch.setattr(Currency, "_invalidate_downstream", counted)
    return started


@pytest.fixture
def race_tracker_off(monkeypatch):
    """The bare kernel path a work count prices: under REPRO_SANITIZE=1
    the race tracker is a frame of its own at every thread transition
    (the invariant hooks are too; a test clears its kernels' own)."""
    import repro.kernel.ipc as ipc_module
    import repro.kernel.kernel as kernel_module
    import repro.kernel.thread as thread_module

    for module in (kernel_module, thread_module, ipc_module):
        monkeypatch.setattr(module, "_race_tracker", None)


def count_work(run, *args, lines=False, within=None, qualname=False):
    """Call ``run(*args)`` and count the Python-level work it does.

    Calls are counted through ``sys.setprofile``, by ``co_name`` (by
    ``co_qualname`` with ``qualname``), only in files whose path
    contains ``within`` when that is given.  With ``lines``, line events
    are counted too, through ``sys.settrace``: a loop inside one frame
    is invisible to the call count.  Whatever profiler and tracer were
    installed are put back.  Returns ``(calls, line_events)``.
    """
    calls = Counter()
    line_events = [0]
    attribute = "co_qualname" if qualname else "co_name"

    def profile(frame, event, arg):
        if event == "call" and (within is None
                                or within in frame.f_code.co_filename):
            calls[getattr(frame.f_code, attribute)] += 1

    def local(frame, event, arg):
        if event == "line":
            line_events[0] += 1
        return local

    previous = sys.getprofile(), sys.gettrace()
    sys.setprofile(profile)
    if lines:
        sys.settrace(lambda frame, event, arg: local)
    try:
        run(*args)
    finally:
        sys.settrace(previous[1])
        sys.setprofile(previous[0])
    return calls, line_events[0]


def make_lottery_kernel(seed: int = 1, quantum: float = 100.0,
                        engine=None, **policy_kwargs):
    """Engine + ledger + lottery kernel, wired together (on ``engine``
    when given: kernels sharing one virtual clock)."""
    engine = Engine() if engine is None else engine
    ledger = Ledger()
    policy = LotteryPolicy(ledger, prng=ParkMillerPRNG(seed), **policy_kwargs)
    kernel = Kernel(engine, policy, ledger=ledger, quantum=quantum)
    return kernel


def shard_plan(cores, *threads, rebalance_ms=None, seed=7):
    """A 500 ms-epoch plan of ``(core, name, tickets[, spec])``."""
    from repro.shard.plan import ShardPlan

    plan = ShardPlan(seed=seed, cores=cores, quantum=100.0, epoch_ms=500.0,
                     rebalance_ms=rebalance_ms)
    for core, name, tickets, *extra in threads:
        kwargs = {"body": "spin", "chunk_ms": 50.0, **(extra or [{}])[0]}
        plan.add_thread(core, kwargs.pop("body"), name, tickets=tickets,
                        **kwargs)
    return plan


def census_at(plan, *stops):
    """``cluster_fairness.census`` of a run of ``plan`` at each stop."""
    from repro.experiments.cluster_fairness import census
    from repro.shard.engine import ShardedEngine

    with ShardedEngine(plan) as engine:
        return [census(engine.advance(stop)) for stop in stops]


@pytest.fixture
def lottery_kernel():
    """A ready-to-use kernel with the lottery policy."""
    return make_lottery_kernel()


def spin_body(chunk_ms: float = 10.0):
    """A compute-forever thread body factory."""

    def body(ctx):
        from repro.kernel.syscalls import Compute

        while True:
            yield Compute(chunk_ms)

    return body
