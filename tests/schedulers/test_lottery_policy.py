"""Tests for the lottery scheduling policy wired into the kernel."""

import pytest

from repro.core.prng import ParkMillerPRNG
from repro.core.tickets import Ledger
from repro.kernel.kernel import Kernel
from repro.schedulers.lottery_policy import LotteryPolicy
from repro.sim.engine import Engine
from tests.conftest import count_work, make_lottery_kernel, spin_body


class TestProportionalShares:
    @pytest.mark.parametrize("ratio", [1, 2, 5, 10])
    def test_two_thread_ratios(self, ratio):
        kernel = make_lottery_kernel(seed=ratio * 13)
        a = kernel.spawn(spin_body(), "a", tickets=100.0 * ratio)
        b = kernel.spawn(spin_body(), "b", tickets=100.0)
        kernel.run_until(200_000)
        observed = a.cpu_time / b.cpu_time
        assert observed == pytest.approx(ratio, rel=0.2)

    def test_three_way_split(self):
        kernel = make_lottery_kernel(seed=4242)
        threads = {
            name: kernel.spawn(spin_body(), name, tickets=amount)
            for name, amount in (("a", 500), ("b", 300), ("c", 200))
        }
        kernel.run_until(200_000)
        total = sum(t.cpu_time for t in threads.values())
        assert threads["a"].cpu_time / total == pytest.approx(0.5, abs=0.05)
        assert threads["b"].cpu_time / total == pytest.approx(0.3, abs=0.05)
        assert threads["c"].cpu_time / total == pytest.approx(0.2, abs=0.05)

    def test_dynamic_ticket_change_takes_effect(self):
        kernel = make_lottery_kernel(seed=321)
        a = kernel.spawn(spin_body(), "a", tickets=100)
        b = kernel.spawn(spin_body(), "b", tickets=100)
        kernel.run_until(100_000)
        first_a = a.cpu_time
        # Inflate a's ticket 4x; the next 100 s should split ~4:1.
        a.tickets[0].set_amount(400)
        kernel.run_until(200_000)
        second_a = a.cpu_time - first_a
        second_b = b.cpu_time - (100_000 - first_a)
        assert second_a / second_b == pytest.approx(4.0, rel=0.25)

    def test_currency_funded_threads(self):
        kernel = make_lottery_kernel(seed=999)
        ledger = kernel.ledger
        group = ledger.create_currency("group")
        ledger.create_ticket(900, fund=group)
        solo = kernel.spawn(spin_body(), "solo", tickets=300)
        grouped = []
        for i in range(3):
            task = kernel.create_task(f"g{i}")
            task.currency = group
            grouped.append(
                kernel.spawn(spin_body(), f"g{i}", task=task, tickets=100,
                             currency=group)
            )
        kernel.run_until(200_000)
        group_cpu = sum(t.cpu_time for t in grouped)
        # Group gets 900 of 1200 total = 75%; members split it evenly.
        assert group_cpu / 200_000 == pytest.approx(0.75, abs=0.05)
        for member in grouped:
            assert member.cpu_time / group_cpu == pytest.approx(1 / 3, abs=0.07)


class TestTreeMode:
    def test_tree_policy_matches_list_shares(self):
        engine = Engine()
        ledger = Ledger()
        policy = LotteryPolicy(ledger, prng=ParkMillerPRNG(55), use_tree=True)
        kernel = Kernel(engine, policy, ledger=ledger, quantum=100.0)
        a = kernel.spawn(spin_body(), "a", tickets=300)
        b = kernel.spawn(spin_body(), "b", tickets=100)
        kernel.run_until(200_000)
        assert a.cpu_time / b.cpu_time == pytest.approx(3.0, rel=0.2)

    def test_tree_mode_tracks_funding_changes(self):
        engine = Engine()
        ledger = Ledger()
        policy = LotteryPolicy(ledger, prng=ParkMillerPRNG(56), use_tree=True)
        kernel = Kernel(engine, policy, ledger=ledger, quantum=100.0)
        a = kernel.spawn(spin_body(), "a", tickets=100)
        b = kernel.spawn(spin_body(), "b", tickets=100)
        kernel.run_until(50_000)
        a.tickets[0].set_amount(900)
        start_a, start_b = a.cpu_time, b.cpu_time
        kernel.run_until(250_000)
        gained_a = a.cpu_time - start_a
        gained_b = b.cpu_time - start_b
        assert gained_a / gained_b == pytest.approx(9.0, rel=0.3)


class TestCompensationIntegration:
    def test_io_bound_thread_keeps_share(self):
        # Section 4.5: B uses 20 ms then yields; equal funding -> equal
        # long-run CPU with compensation enabled.
        from repro.kernel.syscalls import Compute, YieldCPU

        kernel = make_lottery_kernel(seed=31)

        def fractional(ctx):
            while True:
                yield Compute(20.0)
                yield YieldCPU()

        a = kernel.spawn(spin_body(100.0), "full", tickets=400)
        b = kernel.spawn(fractional, "frac", tickets=400)
        kernel.run_until(400_000)
        assert a.cpu_time / b.cpu_time == pytest.approx(1.0, rel=0.15)

    def test_without_compensation_fraction_user_starves(self):
        from repro.kernel.syscalls import Compute, YieldCPU

        kernel = make_lottery_kernel(seed=31, compensation=False)

        def fractional(ctx):
            while True:
                yield Compute(20.0)
                yield YieldCPU()

        a = kernel.spawn(spin_body(100.0), "full", tickets=400)
        b = kernel.spawn(fractional, "frac", tickets=400)
        kernel.run_until(400_000)
        # B only banks 20 ms per win at equal win rates: ~5:1.
        assert a.cpu_time / b.cpu_time == pytest.approx(5.0, rel=0.2)


class TestBookkeeping:
    def test_lottery_counter(self):
        kernel = make_lottery_kernel()
        kernel.spawn(spin_body(), "a", tickets=10)
        kernel.spawn(spin_body(), "b", tickets=10)
        kernel.run_until(10_000)
        assert kernel.policy.lotteries_held == kernel.dispatch_count

    def test_exited_thread_leaves_no_state(self):
        from repro.kernel.syscalls import Compute

        kernel = make_lottery_kernel()

        def short(ctx):
            yield Compute(30.0)

        kernel.spawn(short, "short", tickets=10)
        kernel.run_until(1000)
        assert kernel.policy.runnable_count() == 0
        assert kernel.policy.compensation.outstanding() == 0

    def test_draw_stats_exposed(self):
        kernel = make_lottery_kernel()
        kernel.spawn(spin_body(), "a", tickets=10)
        kernel.run_until(1000)
        assert kernel.policy.draw_stats().draws > 0


class TestTreeWorkPerQuantum:
    """What a dispatch costs the partial-sum tree, as counts (paper
    section 4.2 promises lg n per lottery).  The winner leaves its slot
    at dispatch and a preempted thread re-enters the same slot -- the
    free list is a stack -- with the funding it left with; refreshing
    the nodes above it at both ends recomputed, twice a quantum, the
    bits they already held."""

    def test_preempted_spinners_never_refresh_the_tree(self, refreshes):
        kernel = make_lottery_kernel(seed=3, quantum=10.0, use_tree=True)
        for index in range(1_000):
            kernel.spawn(spin_body(7.0), f"spin{index}",
                         tickets=float(1 + index % 13))
        assert len(refreshes) == 1_000  # one per appended slot
        del refreshes[:]
        kernel.run_until(2_000 * 10.0)
        assert kernel.dispatch_count == 2_001
        assert refreshes == []  # 4 001 when every write refreshed

    def test_base_funded_spinners_never_walk_the_ledger(self, walks):
        """The same run seen from the ledger: a base ticket is worth its
        face amount whatever the base active amount, so the base
        currency is never marked read and (de)activating a base-funded
        thread at every dispatch and re-enqueue starts no invalidation
        walk -- the ``dispatch_wide`` bypass of the read gate."""
        kernel = make_lottery_kernel(seed=3, quantum=10.0, use_tree=True)
        for index in range(200):
            kernel.spawn(spin_body(7.0), f"spin{index}",
                         tickets=float(1 + index % 13))
        kernel.run_until(500 * 10.0)
        assert kernel.dispatch_count == 501
        assert walks == []
        assert not kernel.ledger.base._read

    def test_only_changed_values_refresh_in_the_mixed_recipe(self, refreshes):
        """The ``lottery-mix-42`` golden run of
        ``tests/perf/test_equivalence.py`` (blocking and yielding
        threads, compensation tickets): a refresh is left only where a
        slot's value really changed between two reads."""
        from repro.checkpoint.registry import build_recipe

        handle = build_recipe("lottery-mix", {"seed": 42, "use_tree": True})
        handle.advance(30_000.0)
        assert len(refreshes) == 715  # 1 055 when every write refreshed


class TestCallsPerDispatch:
    """The per-quantum path priced as an exact overhead model (paper
    sections 4.2 and 5.6 measure the scheduler per quantum): Python-level
    calls per dispatch on the tree spinner kernel of the
    ``dispatch_wide`` benchmark, counted with ``sys.setprofile`` after
    warm-up.  73 while every queue push, clock hop, ``Event.__init__``,
    race-tracker wrapper and ``Thread.__hash__`` was a frame of its own;
    docs/PERFORMANCE.md section 1 names the frames left and why."""

    def test_a_dispatch_costs_at_most_48_python_calls(self,
                                                      race_tracker_off):
        kernel = make_lottery_kernel(seed=3, quantum=10.0, use_tree=True)
        kernel.invariant_hooks.clear()
        for index in range(200):
            kernel.spawn(spin_body(7.0), f"spin{index}",
                         tickets=float(1 + index % 13))
        kernel.run_until(500 * 10.0)
        start = kernel.dispatch_count
        calls, _ = count_work(kernel.run_until, 2_500 * 10.0)
        dispatches = kernel.dispatch_count - start
        assert dispatches == 2_000
        per_dispatch = sum(calls.values()) / dispatches
        assert per_dispatch <= 48, sorted(calls.items(), key=lambda kv: -kv[1])
