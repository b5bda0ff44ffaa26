"""Tests for the dynamic determinism-race sanitizer.

The seeded-violation tests prove the trap end to end: a thread owned by
one kernel, mutated from another kernel's execution context outside a
declared barrier seam, raises
:class:`~repro.errors.DeterminismRaceError` -- both when driven
directly through ``tracker.context`` and when the mutation rides the
real dispatch path of a running cluster.  The legality tests prove the
declared seams (IPC wakes, migration, evacuation, crash) stay
trap-free, which is what lets the full tier-1 suite run under
``REPRO_SANITIZE=1``.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

from repro.analysis.races import DECLARED_SEAMS, RaceTracker
from repro.distributed.cluster import Cluster
from repro.errors import DeterminismRaceError
from repro.kernel.syscalls import Compute, YieldCPU
from repro.kernel.thread import ThreadState

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


def two_node_cluster():
    return Cluster(nodes=2, rebalance_period=None)


# -- owner tagging -----------------------------------------------------------


def test_threads_are_tagged_with_their_kernel(race_tracker):
    cluster = two_node_cluster()
    node0, node1 = cluster.nodes
    thread = cluster.spawn(spinner(), "t", tickets=100, node=node0)
    owner = race_tracker.owner_of(thread)
    assert owner is race_tracker.token_for(node0.kernel)
    assert owner is not race_tracker.token_for(node1.kernel)


def test_threads_created_before_activation_are_unchecked():
    tracker = RaceTracker()
    cluster = two_node_cluster()  # spawned while this tracker is inert
    thread = cluster.spawn(spinner(), "t", tickets=100)
    tracker.activate()
    try:
        assert tracker.owner_of(thread) is None
        with tracker.context(cluster.nodes[1].kernel):
            thread.transition(ThreadState.RUNNING)  # untagged: no trap
    finally:
        tracker.deactivate()


# -- the trap ----------------------------------------------------------------


def test_cross_owner_transition_traps(race_tracker):
    cluster = two_node_cluster()
    node0, node1 = cluster.nodes
    victim = cluster.spawn(spinner(), "victim", tickets=100, node=node1)
    with race_tracker.context(node0.kernel):
        with pytest.raises(DeterminismRaceError) as exc:
            victim.transition(ThreadState.RUNNING)
    assert "cross-owner" in str(exc.value)
    assert "barrier seam" in str(exc.value)
    assert race_tracker.violations == 1


def test_same_owner_transition_is_legal(race_tracker):
    cluster = two_node_cluster()
    node0 = cluster.nodes[0]
    thread = cluster.spawn(spinner(), "t", tickets=100, node=node0)
    with race_tracker.context(node0.kernel):
        thread.transition(ThreadState.RUNNING)
    assert race_tracker.violations == 0
    assert race_tracker.checks == 1


def test_mutation_outside_any_context_is_unchecked(race_tracker):
    # Test harnesses and experiment drivers poke threads directly; with
    # no owner context on the stack that is not a shard-ordering hazard.
    cluster = two_node_cluster()
    thread = cluster.spawn(spinner(), "t", tickets=100)
    thread.transition(ThreadState.RUNNING)
    assert race_tracker.violations == 0


def test_declared_seam_permits_cross_owner_mutation(race_tracker):
    cluster = two_node_cluster()
    node0, node1 = cluster.nodes
    victim = cluster.spawn(spinner(), "victim", tickets=100, node=node1)
    with race_tracker.context(node0.kernel):
        with race_tracker.seam("cluster.migrate"):
            victim.transition(ThreadState.RUNNING)
    assert race_tracker.violations == 0


def test_undeclared_seam_name_raises(race_tracker):
    with pytest.raises(DeterminismRaceError, match="undeclared barrier seam"):
        with race_tracker.seam("adhoc.backdoor"):
            pass


def test_seeded_race_traps_through_real_dispatch(race_tracker):
    """Acceptance: a body on kernel A mutating kernel B's thread mid-
    segment is caught by the wrapped dispatch path itself."""
    cluster = two_node_cluster()
    node0, node1 = cluster.nodes
    victim = cluster.spawn(spinner(), "victim", tickets=100, node=node1)

    def evil(ctx):
        # Runs inside node0's _run_segment context: cross-kernel poke.
        # EXITED is a legal edge from every live state, so the race
        # trap (not the state machine) is what fires.
        victim.transition(ThreadState.EXITED)
        yield Compute(1.0)

    node0.kernel.spawn(evil, "evil", tickets=100)
    with pytest.raises(DeterminismRaceError, match="cross-owner"):
        cluster.run_until(1_000)
    assert race_tracker.violations == 1


# -- ownership transfer at seams ---------------------------------------------


def test_migration_retags_owner(race_tracker):
    cluster = two_node_cluster()
    node0, node1 = cluster.nodes
    thread = cluster.spawn(spinner(), "mover", tickets=100, node=node0)
    assert cluster.migrate(thread, node1)
    assert race_tracker.owner_of(thread) is \
        race_tracker.token_for(node1.kernel)
    # The new owner may mutate; the old owner now traps.
    with race_tracker.context(node1.kernel):
        thread.transition(ThreadState.RUNNING)
        thread.transition(ThreadState.RUNNABLE)
    with race_tracker.context(node0.kernel):
        with pytest.raises(DeterminismRaceError):
            thread.transition(ThreadState.RUNNING)


def test_crash_evacuation_retags_and_stays_trap_free(race_tracker):
    cluster = two_node_cluster()
    node0, node1 = cluster.nodes
    thread = cluster.spawn(spinner(), "survivor", tickets=100, node=node0)
    cluster.run_until(500)
    cluster.crash_node(node0)
    assert race_tracker.owner_of(thread) is \
        race_tracker.token_for(node1.kernel)
    cluster.run_until(1_500)
    assert thread.cpu_time > 0
    assert race_tracker.violations == 0


# -- end-to-end legality -----------------------------------------------------


def test_clustered_run_with_yields_is_trap_free(race_tracker):
    cluster = Cluster(nodes=3, rebalance_period=500.0)
    for index in range(6):
        cluster.spawn(spinner(), f"w{index}", tickets=100 * (index + 1))

    def yielder(ctx):
        while True:
            yield Compute(5.0)
            yield YieldCPU()

    cluster.spawn(yielder, "yielder", tickets=200)
    cluster.run_until(20_000)  # rebalancer migrations included
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
    cluster = two_node_cluster()
    node0, node1 = cluster.nodes
    victim = cluster.spawn(spinner(), "victim", tickets=100, node=node1)
    race_tracker.deactivate()
    with race_tracker.context(node0.kernel):
        victim.transition(ThreadState.RUNNING)  # inert: no trap
    assert race_tracker.violations == 0
