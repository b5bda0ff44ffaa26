"""Tests for the dynamic determinism-race sanitizer.

The seeded-violation tests prove the trap end to end: a thread owned by
one kernel, mutated from another kernel's execution context outside a
declared barrier seam, raises
:class:`~repro.errors.DeterminismRaceError` -- both when driven
directly through ``tracker.context`` and when the mutation rides the
real dispatch path of two kernels sharing one engine.  The legality
tests prove the declared seams (IPC wakes, a sharded run's migration,
evacuation, crash and rebalancing) stay trap-free, which is what lets
the full tier-1 suite run under ``REPRO_SANITIZE=1``.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

from repro.analysis.races import DECLARED_SEAMS, RaceTracker
from repro.errors import DeterminismRaceError
from repro.kernel.syscalls import Compute
from repro.kernel.thread import ThreadState
from repro.shard.engine import ShardedEngine
from repro.sim.engine import Engine
from tests.conftest import census_at, make_lottery_kernel, shard_plan

SRC = Path(__file__).resolve().parents[2] / "src"


@pytest.fixture
def race_tracker():
    """A fresh, active tracker; restores whatever was active before."""
    import repro.kernel.thread as thread_module

    previous = thread_module._race_tracker
    fresh = RaceTracker()
    fresh.activate()
    yield fresh
    fresh.deactivate()
    if previous is not None and previous.active:
        previous.activate()


def spinner(chunk_ms: float = 10.0):
    def body(ctx):
        while True:
            yield Compute(chunk_ms)
    return body


def two_kernels(engine=None):
    engine = Engine() if engine is None else engine
    return (make_lottery_kernel(1, engine=engine),
            make_lottery_kernel(102, engine=engine))


def incarnations(engine, name):
    """(kernel, thread) of every thread ``name`` of a sharded run."""
    return [(kernel, thread) for kernel in engine.shard_kernels()
            for thread in kernel.threads if thread.name == name]


# -- owner tagging -----------------------------------------------------------


def test_threads_are_tagged_with_their_kernel(race_tracker):
    kernel0, kernel1 = two_kernels()
    thread = kernel0.spawn(spinner(), "t", tickets=100)
    owner = race_tracker.owner_of(thread)
    assert owner is race_tracker.token_for(kernel0)
    assert owner is not race_tracker.token_for(kernel1)


def test_threads_created_before_activation_are_unchecked():
    tracker = RaceTracker()
    kernel0, kernel1 = two_kernels()  # spawned while this tracker is inert
    thread = kernel0.spawn(spinner(), "t", tickets=100)
    tracker.activate()
    try:
        assert tracker.owner_of(thread) is None
        with tracker.context(kernel1):
            thread.transition(ThreadState.RUNNING)  # untagged: no trap
    finally:
        tracker.deactivate()


# -- the trap ----------------------------------------------------------------


def test_cross_owner_transition_traps(race_tracker):
    kernel0, kernel1 = two_kernels()
    victim = kernel1.spawn(spinner(), "victim", tickets=100)
    with race_tracker.context(kernel0):
        with pytest.raises(DeterminismRaceError) as exc:
            victim.transition(ThreadState.RUNNING)
    assert "cross-owner" in str(exc.value)
    assert "barrier seam" in str(exc.value)
    assert race_tracker.violations == 1


def test_same_owner_transition_is_legal(race_tracker):
    kernel0, _ = two_kernels()
    thread = kernel0.spawn(spinner(), "t", tickets=100)
    with race_tracker.context(kernel0):
        thread.transition(ThreadState.RUNNING)
    assert race_tracker.violations == 0
    assert race_tracker.checks == 1


def test_mutation_outside_any_context_is_unchecked(race_tracker):
    # Test harnesses and experiment drivers poke threads directly; with
    # no owner context on the stack that is not a shard-ordering hazard.
    kernel0, _ = two_kernels()
    thread = kernel0.spawn(spinner(), "t", tickets=100)
    thread.transition(ThreadState.RUNNING)
    assert race_tracker.violations == 0


def test_declared_seam_permits_cross_owner_mutation(race_tracker):
    kernel0, kernel1 = two_kernels()
    victim = kernel1.spawn(spinner(), "victim", tickets=100)
    with race_tracker.context(kernel0):
        with race_tracker.seam("shard.migrate"):
            victim.transition(ThreadState.RUNNING)
    assert race_tracker.violations == 0


def test_undeclared_seam_name_raises(race_tracker):
    with pytest.raises(DeterminismRaceError, match="undeclared barrier seam"):
        with race_tracker.seam("adhoc.backdoor"):
            pass


def test_seeded_race_traps_through_real_dispatch(race_tracker):
    """Acceptance: a body on kernel A mutating kernel B's thread mid-
    segment is caught by the wrapped dispatch path itself."""
    engine = Engine()
    kernel0, kernel1 = two_kernels(engine)
    victim = kernel1.spawn(spinner(), "victim", tickets=100)

    def evil(ctx):
        # Runs inside kernel0's _run_segment context: cross-kernel poke.
        # EXITED is a legal edge from every live state, so the race
        # trap (not the state machine) is what fires.
        victim.transition(ThreadState.EXITED)
        yield Compute(1.0)

    kernel0.spawn(evil, "evil", tickets=100)
    with pytest.raises(DeterminismRaceError, match="cross-owner"):
        engine.run(until=1_000)
    assert race_tracker.violations == 1


def test_tracker_activated_mid_run_pushes_the_next_dispatch(race_tracker):
    """The dispatch entry points read the tracker as each event starts,
    so one armed between two runs owns the very next quantum: the poke
    below happens inside kernel0's context and traps."""
    engine = Engine()
    kernel0, kernel1 = two_kernels(engine)
    targets = []

    def evil(ctx):
        while True:
            for victim in targets:
                victim.transition(ThreadState.EXITED)
            yield Compute(1.0)

    race_tracker.deactivate()
    kernel0.spawn(evil, "evil", tickets=100)
    engine.run(until=500)  # untracked: nothing to check yet
    race_tracker.activate()
    targets.append(kernel1.spawn(spinner(), "victim", tickets=100))
    with pytest.raises(DeterminismRaceError, match="cross-owner"):
        engine.run(until=1_000)
    assert race_tracker.violations == 1
    assert engine.now < 502.0  # evil's first compute step after arming


def _cross_kernel_rpc(requests: int = 6):
    """A client on kernel0 ``Call``-ing a port on kernel1: two kernels
    on one engine and one shared ledger (the transfer ticket is minted
    in the client's currency and funds the server).  The delivery wakes
    the server from kernel0's context and the reply wakes the client
    from kernel1's -- the two declared IPC seams."""
    from repro.core.prng import ParkMillerPRNG
    from repro.core.tickets import Ledger
    from repro.kernel.ipc import Port
    from repro.kernel.kernel import Kernel
    from repro.kernel.syscalls import Call, Receive, Reply
    from repro.schedulers.lottery_policy import LotteryPolicy

    engine, ledger = Engine(), Ledger()
    kernel0, kernel1 = (
        Kernel(engine, LotteryPolicy(ledger, prng=ParkMillerPRNG(seed)),
               ledger=ledger, quantum=100.0) for seed in (1, 102))
    port = Port(kernel1, "svc")
    replies = []

    def server(ctx):
        while True:
            request = yield Receive(port)
            yield Compute(2.0)
            yield Reply(request, request.message * 10)

    def client(ctx):
        for index in range(requests):
            replies.append((yield Call(port, index)))
            yield Compute(1.0)

    kernel1.spawn(server, "server", tickets=100)
    kernel0.spawn(client, "client", tickets=100,
                  currency=ledger.create_currency("client"))
    ledger.create_ticket(100, fund=ledger.currency("client"))
    return engine, replies


def test_cross_kernel_rpc_wakes_only_inside_the_ipc_seams(race_tracker):
    engine, replies = _cross_kernel_rpc()
    engine.run(until=1_000)
    assert replies == [0, 10, 20, 30, 40, 50]
    # Two wakes a request, each checked: a wake that skipped its seam
    # while armed would trap here instead.
    assert race_tracker.checks == 28 and race_tracker.violations == 0


def test_cross_kernel_rpc_without_the_seams_traps(race_tracker,
                                                  monkeypatch):
    """The run above with the seams emptied: each wake is a cross-owner
    mutation, so an armed wake that skipped its seam would trap too."""
    from contextlib import nullcontext

    import repro.kernel.ipc as ipc_module

    monkeypatch.setattr(ipc_module, "_race_seam", lambda name: nullcontext())
    engine, _ = _cross_kernel_rpc()
    with pytest.raises(DeterminismRaceError, match="cross-owner"):
        engine.run(until=1_000)
    assert race_tracker.violations == 1


# -- ownership transfer at seams ---------------------------------------------


def test_migration_retags_owner(race_tracker):
    # A sharded migration respawns: the thread arriving on core 1 is a
    # new one, owned by core 1's kernel; the one left on core 0 is dead.
    plan = shard_plan(2, (0, "mover", 100.0)).migrate(250.0, "mover", 0, 1)
    with ShardedEngine(plan) as engine:
        engine.advance(1_000.0)
        (kernel0, old), (kernel1, thread) = incarnations(engine, "mover")
        assert not old.alive and thread.alive
        assert race_tracker.owner_of(old) is race_tracker.token_for(kernel0)
        assert race_tracker.owner_of(thread) is \
            race_tracker.token_for(kernel1)
        # The new owner may mutate; the old owner traps.
        with race_tracker.context(kernel1):
            race_tracker.check(thread)
        with race_tracker.context(kernel0):
            with pytest.raises(DeterminismRaceError):
                race_tracker.check(thread)


def test_crash_evacuation_retags_and_stays_trap_free(race_tracker):
    plan = shard_plan(2, (0, "survivor", 100.0)).crash(500.0, 0, 1)
    with ShardedEngine(plan) as engine:
        engine.advance(1_500.0)
        (_, old), (kernel1, thread) = incarnations(engine, "survivor")
        assert not old.alive
        assert race_tracker.owner_of(thread) is \
            race_tracker.token_for(kernel1)
        assert thread.cpu_time > 0
    assert race_tracker.violations == 0


# -- end-to-end legality -----------------------------------------------------


def test_clustered_run_with_yields_is_trap_free(race_tracker):
    # Skewed spinners and a sleeper, rebalanced every 500 ms.
    plan = shard_plan(3, *[(0, f"w{index}", 100.0 * (index + 1))
                           for index in range(6)],
                      (0, "yielder", 200.0, {"body": "sleeper",
                                             "sleep_ms": 5.0}),
                      rebalance_ms=500.0)
    (_, cores), = census_at(plan, 20_000.0)
    assert sum(core["migrations_out"] for core in cores) > 0
    assert race_tracker.checks > 0
    assert race_tracker.violations == 0


def test_declared_seams_match_call_sites():
    """DECLARED_SEAMS is the one seam table: every literal passed to
    ``race_seam`` / ``_race_seam`` under ``src/`` is declared, and every
    declared seam has a call site."""
    used = set()
    for source in sorted(SRC.rglob("*.py")):
        for node in ast.walk(ast.parse(source.read_text(encoding="utf-8"))):
            if not isinstance(node, ast.Call) or not node.args:
                continue
            func = node.func
            name = func.id if isinstance(func, ast.Name) else \
                getattr(func, "attr", None)
            first = node.args[0]
            if name in ("race_seam", "_race_seam") and \
                    isinstance(first, ast.Constant):
                used.add(first.value)
    assert used == set(DECLARED_SEAMS)


def test_deactivate_disarms_the_trap(race_tracker):
    kernel0, kernel1 = two_kernels()
    victim = kernel1.spawn(spinner(), "victim", tickets=100)
    race_tracker.deactivate()
    with race_tracker.context(kernel0):
        victim.transition(ThreadState.RUNNING)  # inert: no trap
    assert race_tracker.violations == 0
