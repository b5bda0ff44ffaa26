"""Tests for the fault injector: every seam, plus log determinism.

Whole cores crashing and restarting are ``crash`` / ``restart`` ops of
a sharded plan; ``TestNodeFaults`` asserts them there."""

import pytest

from repro.errors import FaultError
from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultPlanBuilder
from repro.kernel.ipc import Port
from repro.kernel.syscalls import Call, Compute, Receive, Reply, Send
from repro.sim.engine import Engine
from tests.conftest import census_at, make_lottery_kernel, shard_plan, spin_body


def shared_engine_kernels(seed=1):  # k0, k1: two spinners each
    engine = Engine()
    kernels = {}
    for index in range(2):
        kernel = make_lottery_kernel(seed + 101 * index, quantum=50.0,
                                     engine=engine)
        for spinner in (2 * index, 2 * index + 1):
            kernel.spawn(spin_body(20.0), f"w{spinner}", tickets=100.0)
        kernels[f"k{index}"] = kernel
    return engine, kernels


def node_plan(cores=3, rebalance_ms=500.0):
    return shard_plan(cores, *[(index % cores, f"w{index}", 100.0)
                               for index in range(cores * 2)],
                      rebalance_ms=rebalance_ms)


class TestConstructionAndArming:
    def test_needs_engine_or_cluster(self):
        plan = FaultPlanBuilder().build()
        with pytest.raises(FaultError):
            FaultInjector(plan)

    def test_double_arm_rejected(self):
        kernel = make_lottery_kernel()
        injector = FaultInjector(FaultPlanBuilder().build(),
                                 kernels={"k": kernel},
                                 engine=kernel.engine)
        injector.arm()
        with pytest.raises(FaultError):
            injector.arm()

    def test_unknown_targets_fail_loud(self):
        engine, kernels = shared_engine_kernels()
        plan = (FaultPlanBuilder()
                .delay_ipc("k9", at=10.0, duration=50.0, delay_ms=5.0)
                .build())
        FaultInjector(plan, kernels=kernels, engine=engine).arm()
        with pytest.raises(FaultError):
            engine.run(until=100.0)

        kernel = make_lottery_kernel()
        plan = (FaultPlanBuilder()
                .clock_skew("ghost", at=10.0, factor=2.0, duration=50.0)
                .build())
        FaultInjector(plan, kernels={"k": kernel},
                      engine=kernel.engine).arm()
        with pytest.raises(FaultError):
            kernel.run_until(100.0)

    def test_node_fault_without_cluster_fails_loud(self):
        # A node fault is no fault kind: it is a sharded-plan op.
        with pytest.raises(FaultError, match="unknown fault kind"):
            FaultPlanBuilder().add(10.0, "node-crash", "node0")


class TestNodeFaults:
    """Core crash / restart as plan ops, on the inline sharded engine."""

    def test_crash_evacuates_and_restart_rejoins(self):
        plan = node_plan().crash(1_000.0, 1, evacuate_to=0)
        (up, _), (down, cores), (back, later) = census_at(
            plan.restart(3_000.0, 1), 500.0, 1_500.0, 10_000.0)
        assert 1 in {row["core"] for row in up.values()}
        assert cores[1]["crashed"] and cores[1]["evacuations"] == 2
        assert 1 not in {row["core"] for row in down.values()}
        # The barrier-time rebalancer repopulated the returned core.
        assert not later[1]["crashed"]
        assert 1 in {row["core"] for row in back.values()}

    def test_crash_kills_pinned_thread_and_reclaims_tickets(self):
        plan = node_plan(rebalance_ms=None).add_thread(
            1, "spin", "victim", tickets=250.0, pinned=True, chunk_ms=20.0)
        (threads, cores), = census_at(plan.crash(1_000.0, 1, evacuate_to=2),
                                      2_000.0)
        assert (cores[1]["casualties"], cores[1]["evacuations"]) == (1, 2)
        # The victim's 250 tickets died with it; the rest still fund
        # live threads.
        assert sum(row["funding"] for row in threads.values()
                   if row["core"] is not None) == 600.0
        assert threads["victim"]["core"] is None

    def test_crash_lost_race_is_recorded_not_raised(self):
        plan = node_plan(cores=2, rebalance_ms=None)
        plan.crash(1_000.0, 0).crash(1_500.0, 0)  # already down: skipped
        (_, cores), = census_at(plan, 2_000.0)
        assert cores[0]["crashed"] and cores[0]["ops_skipped"] == 1
        assert cores[0]["casualties"] == 2


class TestThreadKill:
    def test_kills_named_thread_and_prunes_placement(self):
        engine, kernels = shared_engine_kernels()
        target = next(t for kernel in kernels.values()
                      for t in kernel.threads if t.name == "w2")
        plan = FaultPlanBuilder().kill_thread("w2", at=1_000.0).build()
        injector = FaultInjector(plan, kernels=kernels, engine=engine).arm()
        engine.run(until=2_000.0)
        assert (target.alive, target.exited_at) == (False, 1_000.0)
        assert any("[killed]" in line for line in injector.applied_log())

    def test_missing_thread_is_skipped(self):
        kernel = make_lottery_kernel()
        kernel.spawn(spin_body(), "real", tickets=10)
        plan = FaultPlanBuilder().kill_thread("ghost", at=10.0).build()
        injector = FaultInjector(plan, kernels={"k": kernel},
                                 engine=kernel.engine).arm()
        kernel.run_until(100.0)
        assert any("skipped" in line for line in injector.applied_log())


class TestTimerFaults:
    def test_clock_skew_window_installs_and_clears(self):
        kernel = make_lottery_kernel()
        kernel.spawn(spin_body(), "spin", tickets=10)
        plan = (FaultPlanBuilder()
                .clock_skew("k", at=100.0, factor=3.0, duration=400.0)
                .build())
        FaultInjector(plan, kernels={"k": kernel},
                      engine=kernel.engine).arm()
        kernel.run_until(50.0)
        assert kernel.quantum_jitter is None
        kernel.run_until(200.0)
        assert kernel.quantum_jitter is not None
        assert kernel.quantum_jitter(100.0) == 300.0
        kernel.run_until(1_000.0)
        assert kernel.quantum_jitter is None

    def test_timer_jitter_is_seeded_and_bounded(self):
        def run(seed):
            kernel = make_lottery_kernel(seed=5)
            kernel.spawn(spin_body(), "spin", tickets=10)
            plan = (FaultPlanBuilder(seed)
                    .timer_jitter("k", at=0.0, amplitude_ms=30.0,
                                  duration=5_000.0)
                    .build())
            FaultInjector(plan, kernels={"k": kernel},
                          engine=kernel.engine).arm()
            kernel.run_until(200.0)
            jitter = kernel.quantum_jitter
            assert jitter is not None
            samples = [jitter(100.0) for _ in range(50)]
            assert all(70.0 <= s <= 130.0 for s in samples)
            kernel.run_until(10_000.0)
            assert kernel.quantum_jitter is None
            return samples

        assert run(11) == run(11)
        assert run(11) != run(12)


class TestIpcFaults:
    def test_async_send_lost_after_retransmissions(self):
        kernel = make_lottery_kernel()
        port = Port(kernel, "p")
        got = []

        def receiver(ctx):
            request = yield Receive(port)
            got.append(request.message)

        def sender(ctx):
            yield Compute(10.0)
            yield Send(port, "doomed")

        kernel.spawn(receiver, "rx", tickets=10)
        kernel.spawn(sender, "tx", tickets=10)
        plan = (FaultPlanBuilder()
                .drop_ipc("k", at=0.0, duration=60_000.0, drop_rate=1.0,
                          max_attempts=2)
                .build())
        FaultInjector(plan, kernels={"k": kernel},
                      engine=kernel.engine).arm()
        kernel.run_until(30_000.0)
        model = kernel.ipc_faults
        assert model is not None
        assert got == []
        assert model.dropped == 2  # original + one retransmission
        assert model.retransmitted == 1
        assert model.messages_lost == 1
        kernel.run_until(120_000.0)
        assert kernel.ipc_faults is None  # window expired

    def test_rpc_is_force_delivered_never_stranded(self):
        kernel = make_lottery_kernel()
        port = Port(kernel, "p")
        replies = []

        def server(ctx):
            while True:
                request = yield Receive(port)
                yield Reply(request, f"echo:{request.message}")

        def client(ctx):
            yield Compute(10.0)
            reply = yield Call(port, "ping")
            replies.append((ctx.now, reply))

        kernel.spawn(server, "srv", tickets=10)
        kernel.spawn(client, "cli", tickets=10)
        plan = (FaultPlanBuilder()
                .drop_ipc("k", at=0.0, duration=60_000.0, drop_rate=1.0,
                          max_attempts=2)
                .build())
        FaultInjector(plan, kernels={"k": kernel},
                      engine=kernel.engine).arm()
        kernel.run_until(30_000.0)
        model = kernel.ipc_faults
        assert replies and replies[0][1] == "echo:ping"
        assert model.forced_deliveries == 1

    def test_delay_window_defers_delivery(self):
        kernel = make_lottery_kernel()
        port = Port(kernel, "p")
        times = []

        def receiver(ctx):
            request = yield Receive(port)
            times.append(ctx.now)

        def sender(ctx):
            yield Compute(10.0)
            yield Send(port, "slow")

        kernel.spawn(receiver, "rx", tickets=10)
        kernel.spawn(sender, "tx", tickets=10)
        plan = (FaultPlanBuilder()
                .delay_ipc("k", at=0.0, duration=60_000.0, delay_ms=500.0)
                .build())
        FaultInjector(plan, kernels={"k": kernel},
                      engine=kernel.engine).arm()
        kernel.run_until(30_000.0)
        assert times and times[0] >= 500.0
        assert kernel.ipc_faults.delayed == 1

    def test_port_filter_narrows_the_fault(self):
        kernel = make_lottery_kernel()
        clean = Port(kernel, "clean")
        lossy = Port(kernel, "lossy")
        got = []

        def receiver(port):
            def body(ctx):
                request = yield Receive(port)
                got.append((port.name, request.message))
            return body

        def sender(ctx):
            yield Compute(10.0)
            yield Send(clean, "a")
            yield Send(lossy, "b")

        kernel.spawn(receiver(clean), "rx1", tickets=10)
        kernel.spawn(receiver(lossy), "rx2", tickets=10)
        kernel.spawn(sender, "tx", tickets=10)
        plan = (FaultPlanBuilder()
                .drop_ipc("k", at=0.0, duration=60_000.0, drop_rate=1.0,
                          port="lossy", max_attempts=1)
                .build())
        FaultInjector(plan, kernels={"k": kernel},
                      engine=kernel.engine).arm()
        kernel.run_until(30_000.0)
        assert ("clean", "a") in got
        assert ("lossy", "b") not in got


class TestDiskFaults:
    def test_error_window_fails_then_clears(self, engine):
        from repro.iosched.disk import Disk

        disk = Disk(engine)
        plan = (FaultPlanBuilder()
                .disk_errors("d", at=0.0, duration=1_000.0, error_rate=1.0)
                .build())
        FaultInjector(plan, disks={"d": disk}, engine=engine).arm()
        failed = disk.submit("a", 100, 64)
        engine.run(until=1_500.0)
        assert failed.failed
        assert disk.io_errors["a"] == 1
        assert disk.fault_policy is None  # window expired
        ok = disk.submit("a", 200, 64)
        engine.run()
        assert not ok.failed


class TestDeterminism:
    @staticmethod
    def _chaotic_run(seed):
        engine, kernels = shared_engine_kernels(seed=seed)
        plan = (FaultPlanBuilder(seed)
                .timer_jitter("k0", at=200.0, amplitude_ms=10.0,
                              duration=3_000.0)
                .clock_skew("k1", at=500.0, factor=1.5, duration=2_000.0)
                .kill_thread("w1", at=4_000.0).build())
        injector = FaultInjector(plan, kernels=kernels, engine=engine).arm()
        engine.run(until=12_000.0)
        cpu = sorted((t.name, t.cpu_time)
                     for kernel in kernels.values() for t in kernel.threads)
        return injector.applied_log(), cpu

    def test_same_seed_bit_identical_fault_log_and_schedule(self):
        assert self._chaotic_run(97) == self._chaotic_run(97)

    def test_different_seed_diverges(self):
        assert self._chaotic_run(97) != self._chaotic_run(98)
