"""The distributed lottery scheduler (paper section 4.2's extension):
one lottery per core of a sharded run, per-core ticket totals kept level
by the barrier-time rebalancer (:func:`repro.shard.engine.rebalance`),
core crash/restart ops, and ``pinned`` threads that never move."""

import random

import pytest

from repro.errors import ShardError
from repro.experiments.cluster_fairness import census, fairness_rows
from repro.shard.core import ShardCore
from repro.shard.engine import ShardedEngine, rebalance
from repro.shard.plan import ShardPlan
from repro.shard.router import ShardRouter
from tests.conftest import census_at, shard_plan

NAP = {"body": "sleeper", "compute_ms": 5.0, "sleep_ms": 1_000.0}


def load(core, *rows, crashed=False):
    """A core's report from ``(name, tickets[, runnable[, pinned]])``."""
    return {"core": core, "crashed": crashed,
            "threads": [[name, float(tickets), *flags,
                         *(True, False)[len(flags):]]
                        for name, tickets, *flags in rows]}


def where(threads):
    return {n: r["core"] for n, r in threads.items() if r["core"] is not None}


def moves(cores):
    return sum(core["migrations_out"] for core in cores)


def cpu(threads, *names):
    return sum(threads[name]["cpu_ms"] for name in names)


class TestClusterBasics:
    def test_nodes_share_one_clock(self):
        plan = shard_plan(3, *[(core, f"t{core}", 100.0) for core in range(3)])
        with ShardedEngine(plan, shards=3) as engine:
            engine.advance(2_500.0)
            clocks = [core["engine"]["clock_ms"]
                      for core in engine.snapshot_state()["cores"]]
        assert clocks == [2_500.0] * 3 and engine.now == 2_500.0

    def test_validation(self):
        with pytest.raises(ShardError, match="core"):
            ShardPlan(cores=0)
        for bad in (0.0, -500.0, 750.0):
            with pytest.raises(ShardError, match="rebalance_ms"):
                ShardPlan(cores=2, epoch_ms=500.0, rebalance_ms=bad)

    def test_spawn_places_on_least_funded_node(self):
        # The donor goes to the least-funded live core, not just any.
        assert rebalance([load(0, ("heavy", 500), ("light", 100)),
                          load(1, ("mid", 300, False)),
                          load(2)]) == [("heavy", 0, 2)]

    def test_unplaced_thread_lookup_rejected(self):
        plan = shard_plan(2, (0, "a", 1.0))
        with pytest.raises(ShardError, match="bad migrate op"):
            plan.migrate(500.0, "stray", src=0, dst=1)

    def test_nodes_run_in_parallel(self):
        plan = shard_plan(2, (0, "a", 100.0), (1, "b", 100.0))
        (threads, _), = census_at(plan, 10_000.0)
        # Two CPUs: both threads got (nearly) the whole 10 s each.
        assert cpu(threads, "a") == pytest.approx(10_000, rel=0.01)
        assert cpu(threads, "b") == pytest.approx(10_000, rel=0.01)


class TestMigration:
    def test_migrate_moves_runnable_thread(self):
        plan = shard_plan(2, (0, "mover", 100.0), (0, "stayer", 100.0),
                          rebalance_ms=1_000.0)
        (moved, cores), (later, _) = census_at(plan, 1_000.0, 10_000.0)
        # One of the two was respawned on core 1 at the first rebalance.
        assert sorted(where(moved).values()) == [0, 1] and moves(cores) == 1
        name = next(name for name, core in where(moved).items() if core)
        assert cpu(later, name) > 4_000  # runs on its new core

    def test_migrate_refuses_running_and_pinned(self):
        # A 200-ticket gap, but one row is running, the other pinned.
        assert rebalance([load(0, ("pinned", 100, True, True),
                               ("running", 100, False)), load(1)]) == []

    def test_migrate_to_same_node_is_noop(self):
        """Over generated reports, a move always changes core, names a
        thread once, leaves from where it was reported and lands on a
        live core that is not sitting out."""
        rng, made = random.Random(41), 0
        for _ in range(300):
            cores = rng.randint(2, 4)
            loads = [load(core, *[(f"t{core}.{index}", rng.randint(1, 300),
                                   rng.random() < 0.7, rng.random() < 0.2)
                                  for index in range(rng.randint(0, 4))],
                          crashed=rng.random() < 0.15)
                     for core in range(cores)]
            out = {rng.randrange(cores)} if rng.random() < 0.2 else set()
            home = {row[0]: entry["core"] for entry in loads
                    for row in entry["threads"]}
            live = {entry["core"] for entry in loads
                    if not entry["crashed"]} - out
            result = rebalance(loads, out)
            made += len(result)
            assert len({name for name, _, _ in result}) == len(result)
            for name, source, destination in result:
                assert home[name] == source != destination
                assert {source, destination} <= live
        assert made > 100

    def test_sleeping_thread_wakes_on_new_node(self):
        plan = shard_plan(2, (0, "keeper", 100.0), (1, "napper", 100.0, NAP))
        plan.crash(500.0, 1, evacuate_to=0)
        (threads, _), = census_at(plan, 5_000.0)
        # Evacuated while asleep (after one 5 ms burst), restarted on
        # core 0, and woken there from each 1 s sleep since.
        assert where(threads)["napper"] == 0
        assert cpu(threads, "napper") == 25.0


class TestRebalancing:
    SKEWED = [(0, f"t{index}", funding)
              for index, funding in enumerate((300.0, 300.0, 200.0, 200.0))]

    def test_rebalancer_fixes_skewed_placement(self):
        errors = []
        for rebalance_ms in (None, 500.0):
            plan = shard_plan(2, *self.SKEWED, rebalance_ms=rebalance_ms)
            (threads, cores), = census_at(plan, 60_000.0)
            assert (moves(cores) > 0) == (rebalance_ms is not None)
            errors.append(max(row["relative_error"] for row in
                              fairness_rows(threads, 2, 60_000.0)))
        # With 1000 tickets split 500/500, errors should be small.
        assert errors[1] < min(errors[0], 0.2)

    def test_balanced_cluster_stays_put(self):
        plan = shard_plan(2, (0, "a", 100.0), (1, "b", 100.0),
                          rebalance_ms=500.0, seed=9)
        (_, cores), = census_at(plan, 30_000.0)
        assert moves(cores) == 0

    def test_pinned_threads_never_move(self):
        plan = shard_plan(2, *[(0, f"p{index}", 100.0, {"pinned": True})
                               for index in range(4)],
                          rebalance_ms=500.0, seed=13)
        (threads, cores), = census_at(plan, 30_000.0)
        # Placement is maximally skewed, but every thread is pinned.
        assert moves(cores) == 0 and set(where(threads).values()) == {0}

    def test_rebalancing_disabled_with_none_period(self):
        with ShardedEngine(shard_plan(2, *self.SKEWED, seed=13)) as engine:
            seen = []
            broadcast = engine._backend._broadcast
            engine._backend._broadcast = \
                lambda message: seen.append(message) or broadcast(message)
            threads, cores = census(engine.advance(30_000.0))
        # Static plans never ask the cores for loads, nor move anyone.
        assert seen and not any("loads" in message for message in seen)
        assert moves(cores) == 0 and set(where(threads).values()) == {0}

    def test_over_gap_mega_thread_does_not_oscillate(self):
        # The only candidate move (800 tickets) exceeds the funding gap;
        # moving it would overshoot and invite ping-ponging, and no swap
        # shrinks the gap either, so the rebalancer must leave it alone.
        plan = shard_plan(2, (0, "mega", 800.0), (1, "light", 100.0),
                          (1, "tiny", 50.0), rebalance_ms=500.0, seed=17)
        (_, cores), = census_at(plan, 30_000.0)
        assert moves(cores) == 0

    def test_swap_unsticks_where_single_moves_cannot(self):
        # 200+200 vs 150+150: gap is 100, every rich-core thread funds
        # >= the gap, so no single move fires -- but swapping a 200 for
        # a 150 shrinks the gap to zero.
        assert rebalance([load(0, ("a", 200), ("b", 200, False)),
                          load(1, ("c", 150), ("d", 150, False))]) \
            == [("a", 0, 1), ("c", 1, 0)]
        plan = shard_plan(2, (0, "a", 200.0), (0, "b", 200.0),
                          (1, "c", 150.0), (1, "d", 150.0),
                          rebalance_ms=500.0, seed=19)
        (threads, cores), (_, later) = census_at(plan, 10_000.0, 30_000.0)
        assert moves(cores) == 2  # one swap = two coupled moves
        assert [sum(row["funding"] for row in threads.values()
                    if row["core"] == core) for core in (0, 1)] == [350] * 2
        assert moves(later) == 2  # balanced: no oscillation

    def test_water_filling_caps_heavy_thread(self):
        plan = shard_plan(2, (0, "heavy", 10_000.0), (1, "la", 100.0),
                          (1, "lb", 100.0), rebalance_ms=500.0, seed=11)
        (threads, _), = census_at(plan, 60_000.0)
        report = {row["thread"]: row
                  for row in fairness_rows(threads, 2, 60_000.0)}
        # Heavy cannot use more than one CPU; the lights split the other.
        assert report["heavy"]["entitled_ms"] == pytest.approx(60_000)
        assert report["la"]["entitled_ms"] == pytest.approx(30_000)
        assert cpu(threads, "heavy") == pytest.approx(60_000, rel=0.02)
        assert cpu(threads, "la", "lb") == pytest.approx(60_000, rel=0.02)


class TestPlacementHygiene:
    @staticmethod
    def _core_after_exit():
        plan = shard_plan(1, (0, "keeper", 100.0),
                          (0, "finite", 100.0,
                           {"body": "finite_spin", "chunks": 2}))
        core = ShardCore(0, plan, ShardRouter())
        core.run_inclusive(1_000.0)
        return core

    def test_node_of_rejects_exited_thread_with_clear_error(self):
        evict = {"kind": "evict", "target": 0, "name": "finite", "src": 0,
                 "seq": -1}
        with pytest.raises(ShardError, match="'finite'.*no such live"):
            self._core_after_exit().apply_barrier(1_000.0, [evict])

    def test_rebalance_tick_prunes_exited_threads(self):
        rows = self._core_after_exit().load()["threads"]
        assert [row[0] for row in rows] == ["keeper"]


class TestCrashRecovery:
    POPULATED = [(0, "r1", 100.0), (0, "r2", 100.0),
                 (0, "pinned", 100.0, {"pinned": True}),
                 (0, "napper", 100.0, {**NAP, "sleep_ms": 120_000.0})]

    def test_crash_evacuates_unpinned_kills_pinned(self):
        plan = shard_plan(2, *self.POPULATED, seed=23)
        plan.crash(2_000.0, 0, evacuate_to=1)
        (_, cores), (threads, _), (later, _) = census_at(
            plan, 2_000.0, 2_500.0, 10_000.0)
        # Every unpinned spec -- the sleeping napper too -- restarts on
        # the surviving core; only the pinned thread dies.
        assert cores[0]["crashed"]
        assert (cores[0]["evacuations"], cores[0]["casualties"]) == (3, 1)
        assert where(threads) == {"r1": 1, "r2": 1, "napper": 1}
        assert cpu(later, "r1", "r2") > cpu(threads, "r1", "r2")

    def test_crash_and_restart_state_machine(self):
        plan = shard_plan(2, *self.POPULATED, seed=23)
        plan.crash(1_000.0, 0).crash(1_500.0, 0)  # already down: skipped
        plan.restart(2_000.0, 0).restart(2_500.0, 0)  # already up: skipped
        seen = census_at(plan, 1_000.0, 1_500.0, 2_000.0, 2_500.0)
        assert [(cores[0]["crashed"], cores[0]["ops_skipped"])
                for _, cores in seen] == [(True, 0), (True, 1), (False, 1),
                                          (False, 2)]
        assert where(seen[-1][0]) == {}  # the core came back empty

    def test_crashing_every_node_leaves_no_placement_target(self):
        plan = shard_plan(1, (0, "only", 100.0)).crash(500.0, 0)
        (_, cores), = census_at(plan, 1_000.0)
        assert cores[0]["casualties"] == 1
        assert rebalance([load(0, ("a", 100), crashed=True),
                          load(1, crashed=True)]) == []
        assert rebalance([load(0, ("a", 100), ("b", 100)),
                          load(1, crashed=True)]) == []


class TestMigrationRollback:
    def test_destination_failure_mid_move_rolls_back(self):
        # Core 1 crashes at the very rebalance instant a move onto it
        # would land: a core with an op due sits the fold out.
        assert rebalance([load(0, ("mate", 100), ("mover", 100)), load(1)],
                         sitting_out={1}) == []
        plan = shard_plan(2, (0, "mate", 100.0), (0, "mover", 100.0),
                          rebalance_ms=1_000.0).crash(1_000.0, 1)
        (threads, cores), (later, _) = census_at(plan, 3_000.0, 10_000.0)
        assert cores[1]["crashed"] and moves(cores) == 0
        assert where(threads) == {"mate": 0, "mover": 0}
        assert cpu(later, "mover") > cpu(threads, "mover")


class TestMigrateWithRetry:
    def test_retries_until_destination_restarts(self):
        plan = shard_plan(2, (0, "mover", 10.0), (0, "hog", 1_000.0),
                          rebalance_ms=500.0, seed=29)
        plan.crash(500.0, 1).restart(2_000.0, 1)
        (_, cores), (threads, later) = census_at(plan, 2_000.0, 3_000.0)
        # Down (or sitting out) at every rebalance until the restart.
        assert moves(cores) == 0
        assert moves(later) == 1 and 1 in where(threads).values()

    def test_aborts_for_pinned_thread(self):
        plan = shard_plan(2, (0, "pinned", 100.0, {"pinned": True}))
        with pytest.raises(ShardError, match="bad migrate op"):
            plan.migrate(500.0, "pinned", src=0, dst=1)

    def test_aborts_for_dead_thread(self):
        plan = shard_plan(2, (0, "doomed", 100.0,
                              {"body": "finite_spin", "chunks": 1}))
        plan.migrate(500.0, "doomed", src=0, dst=1)
        (threads, cores), = census_at(plan, 1_000.0)
        assert (cores[0]["ops_skipped"], moves(cores)) == (1, 0)
        assert where(threads) == {}  # it exited; nothing respawned
