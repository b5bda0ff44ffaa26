"""Integration tests for the simulated microkernel dispatch loop."""

import re

import pytest

from repro.core.prng import ParkMillerPRNG
from repro.core.tickets import Ledger
from repro.errors import KernelError, SimulationError
from repro.kernel.kernel import Kernel
from repro.kernel.syscalls import Compute, Exit, Send, Sleep, YieldCPU
from repro.kernel.thread import ThreadState
from repro.metrics.recorder import KernelRecorder
from repro.schedulers.lottery_policy import LotteryPolicy
from repro.sim.engine import Engine
from tests.conftest import make_lottery_kernel, spin_body


class TestBasicDispatch:
    def test_single_thread_consumes_all_cpu(self):
        kernel = make_lottery_kernel()
        thread = kernel.spawn(spin_body(), "solo", tickets=100)
        kernel.run_until(10_000)
        assert thread.cpu_time == pytest.approx(10_000)

    def test_two_threads_split_by_tickets(self):
        kernel = make_lottery_kernel(seed=5)
        a = kernel.spawn(spin_body(), "a", tickets=300)
        b = kernel.spawn(spin_body(), "b", tickets=100)
        kernel.run_until(100_000)
        total = a.cpu_time + b.cpu_time
        assert total == pytest.approx(100_000)
        assert a.cpu_time / total == pytest.approx(0.75, abs=0.05)

    def test_compute_spans_quanta(self):
        kernel = make_lottery_kernel()
        done = []

        def body(ctx):
            yield Compute(250.0)  # 2.5 quanta
            done.append(ctx.now)

        kernel.spawn(body, "long", tickets=10)
        kernel.run_until(1000)
        assert done == [250.0]

    def test_zero_length_compute_is_fine(self):
        kernel = make_lottery_kernel()
        done = []

        def body(ctx):
            yield Compute(0.0)
            yield Compute(5.0)
            done.append(ctx.now)

        kernel.spawn(body, "z", tickets=10)
        kernel.run_until(100)
        assert done == [5.0]

    def test_exit_via_return_and_via_syscall(self):
        kernel = make_lottery_kernel()

        def returns(ctx):
            yield Compute(10.0)

        def exits(ctx):
            yield Compute(10.0)
            yield Exit()
            yield Compute(999.0)  # unreachable

        a = kernel.spawn(returns, "r", tickets=10)
        b = kernel.spawn(exits, "e", tickets=10)
        kernel.run_until(1000)
        assert a.state is ThreadState.EXITED
        assert b.state is ThreadState.EXITED
        assert b.cpu_time == pytest.approx(10.0)
        assert a.exited_at is not None

    def test_spawn_requires_positive_quantum(self):
        with pytest.raises(KernelError):
            make_lottery_kernel(quantum=0)

    @pytest.mark.parametrize("quantum", [float("nan"), float("inf")])
    def test_non_finite_quantum_is_refused_by_name(self, quantum):
        # A NaN quantum used to pass ``quantum <= 0`` and hand one
        # thread the whole CPU without a word.
        with pytest.raises(KernelError, match="quantum must be positive"):
            make_lottery_kernel(quantum=quantum)

    @pytest.mark.parametrize("cost", [-1.0, float("nan"), float("inf")])
    def test_bad_context_switch_cost_is_refused_by_name(self, cost):
        ledger = Ledger()
        policy = LotteryPolicy(ledger, prng=ParkMillerPRNG(1))
        with pytest.raises(KernelError, match="context_switch_cost"):
            Kernel(Engine(), policy, ledger=ledger, context_switch_cost=cost)

    @pytest.mark.parametrize("syscall, duration", [
        (Compute, float("nan")), (Compute, -1.0),
        (Sleep, float("nan")), (Sleep, float("inf")), (Sleep, -1.0)])
    def test_bad_duration_is_refused_at_construction(self, syscall, duration):
        # NaN passed ``duration < 0`` and failed later, deep in the
        # engine's call_after.
        with pytest.raises(KernelError, match=re.escape(repr(duration))):
            syscall(duration)

    def test_infinite_compute_is_a_spinner(self):
        assert Compute(float("inf")).remaining == float("inf")


class TestYieldAndSleep:
    def test_yield_keeps_thread_runnable(self):
        kernel = make_lottery_kernel()

        def yielder(ctx):
            while True:
                yield Compute(10.0)
                yield YieldCPU()

        thread = kernel.spawn(yielder, "y", tickets=10)
        kernel.run_until(1000)
        assert thread.voluntary_yields > 0
        assert thread.cpu_time > 0

    def test_sleep_blocks_without_cpu(self):
        kernel = make_lottery_kernel()
        wake_times = []

        def sleeper(ctx):
            yield Compute(10.0)
            yield Sleep(500.0)
            wake_times.append(ctx.now)
            yield Compute(10.0)

        thread = kernel.spawn(sleeper, "s", tickets=10)
        kernel.run_until(2000)
        assert wake_times == [510.0]
        assert thread.cpu_time == pytest.approx(20.0)

    def test_sleeping_thread_frees_cpu_for_others(self):
        kernel = make_lottery_kernel()

        def sleeper(ctx):
            yield Sleep(1000.0)

        spinner = kernel.spawn(spin_body(), "spin", tickets=1)
        kernel.spawn(sleeper, "sleep", tickets=1000)
        kernel.run_until(1000)
        # The richly funded sleeper is off the run queue: the poor
        # spinner gets the whole CPU.
        assert spinner.cpu_time == pytest.approx(1000.0, abs=1.0)


class TestIdleAccounting:
    def test_idle_when_no_threads(self):
        kernel = make_lottery_kernel()
        kernel.run_until(1000)
        assert kernel.cpu_utilization() == pytest.approx(0.0)

    def test_idle_then_busy(self):
        kernel = make_lottery_kernel()

        def late_start():
            kernel.spawn(spin_body(), "late", tickets=10)

        kernel.engine.call_at(500.0, late_start)
        kernel.run_until(1000)
        assert kernel.cpu_utilization() == pytest.approx(0.5, abs=0.01)

    def test_busy_utilization(self):
        kernel = make_lottery_kernel()
        kernel.spawn(spin_body(), "t", tickets=10)
        kernel.run_until(1000)
        assert kernel.cpu_utilization() == pytest.approx(1.0)


class TestZeroFundingFallback:
    def test_unfunded_threads_progress_via_fallback(self):
        kernel = make_lottery_kernel()
        thread = kernel.spawn(spin_body(), "poor")  # no tickets at all
        kernel.run_until(1000)
        assert thread.cpu_time == pytest.approx(1000.0)
        assert kernel.policy.fallback_selections > 0

    def test_strict_mode_starves_unfunded(self):
        kernel = make_lottery_kernel(zero_funding_fallback=False)
        rich = kernel.spawn(spin_body(), "rich", tickets=10)
        poor = kernel.spawn(spin_body(), "poor")
        kernel.run_until(1000)
        assert poor.cpu_time == 0.0
        assert rich.cpu_time == pytest.approx(1000.0)


class TestRunaways:
    def test_instant_syscall_livelock_detected(self):
        kernel = make_lottery_kernel()
        port_kernel = kernel  # for closure clarity
        from repro.kernel.ipc import Port

        port = Port(port_kernel, "p")

        def spammer(ctx):
            while True:
                yield Send(port, "x")  # never computes

        kernel.spawn(spammer, "spam", tickets=10)
        with pytest.raises(SimulationError):
            kernel.run_until(100)


class _Subcompute(Compute):
    __slots__ = ()


class TestUnknownSyscalls:
    @pytest.mark.parametrize("yielded", [5, _Subcompute(1.0)],
                             ids=["int", "compute-subclass"])
    def test_only_exact_syscall_types_are_interpreted(self, yielded):
        # Dispatch is by exact type: a subclass of a known syscall is as
        # unknown as any other object.
        kernel = make_lottery_kernel()

        def body(ctx):
            yield yielded

        kernel.spawn(body, "odd", tickets=10)
        with pytest.raises(KernelError,
                           match=f"unknown syscall {re.escape(repr(yielded))}"):
            kernel.run_until(100)


class TestContextSwitchCost:
    def test_cost_consumes_virtual_time(self):
        kernel_free = make_lottery_kernel(seed=3)
        kernel_costly = make_lottery_kernel(seed=3)
        kernel_costly.context_switch_cost = 1.0
        a1 = kernel_free.spawn(spin_body(), "a", tickets=10)
        a2 = kernel_costly.spawn(spin_body(), "a", tickets=10)
        kernel_free.run_until(10_000)
        kernel_costly.run_until(10_000)
        # ~1 ms lost per 100 ms dispatch: ~1% less CPU delivered.
        assert a2.cpu_time < a1.cpu_time
        assert a2.cpu_time == pytest.approx(10_000 * 100 / 101, rel=0.01)


class TestRecorderIntegration:
    def test_recorder_receives_events(self):
        kernel = make_lottery_kernel()
        recorder = KernelRecorder()
        kernel.recorder = recorder

        def napper(ctx):
            yield Compute(50.0)
            yield Sleep(100.0)
            yield Compute(50.0)

        thread = kernel.spawn(napper, "n", tickets=10)
        kernel.run_until(1000)
        assert recorder.cpu_time(thread) == pytest.approx(100.0)
        assert recorder.dispatches[thread.tid] >= 2
        assert recorder.blocks[thread.tid] == 1
        assert recorder.wakes[thread.tid] == 1
        assert thread.tid in recorder.exits

    def test_cpu_share_windows(self):
        kernel = make_lottery_kernel(seed=9)
        recorder = KernelRecorder()
        kernel.recorder = recorder
        a = kernel.spawn(spin_body(), "a", tickets=100)
        kernel.spawn(spin_body(), "b", tickets=100)
        kernel.run_until(50_000)
        share = recorder.cpu_share(a, 0, 50_000)
        assert share == pytest.approx(0.5, abs=0.1)


class TestWakeValidation:
    def test_waking_non_blocked_thread_rejected(self):
        kernel = make_lottery_kernel()
        thread = kernel.spawn(spin_body(), "t", tickets=10)
        with pytest.raises(KernelError):
            kernel.wake(thread)

    def test_double_start_rejected(self):
        kernel = make_lottery_kernel()
        thread = kernel.spawn(spin_body(), "t", tickets=10)
        with pytest.raises(KernelError):
            kernel.start_thread(thread)

    def test_deferred_start(self):
        kernel = make_lottery_kernel()
        thread = kernel.spawn(spin_body(), "t", tickets=10, start=False)
        assert thread.state is ThreadState.CREATED
        kernel.start_thread(thread)
        kernel.run_until(100)
        assert thread.cpu_time > 0
