"""The benchmark suite: seeded workloads over the simulator's hot loops.

Every benchmark builds a fresh, fully deterministic system from a
fixed seed and returns a closure that drives one hot loop:

=====================  ========================================================
``draw.list.N``        raw :class:`~repro.core.lottery.ListLottery` draws over
                       N statically funded clients (the prototype's structure)
``draw.tree.N``        raw :class:`~repro.core.lottery.TreeLottery` draws, the
                       paper's O(log n) partial-sum tree
``currency.deep.D``    funding revaluation through a D-level currency chain
                       with repeated ticket inflation (cache invalidation path)
``ipc.pingpong``       client/server RPC round trips through a kernel port,
                       each minting and revoking one ticket transfer
``checkpoint.capture`` state-tree capture of a mid-flight lottery kernel
``export.chrome``      Chrome-trace export of a telemetry-instrumented run
=====================  ========================================================

These are the primitives of the paper's section 5.6 (a draw, a currency
conversion, a transfer) plus the two serializers nothing else times.
Whole-system cost -- the kernel dispatch loop at 10,000 threads, the
sharded engine on every backend -- is measured by ``python3
bench/run.py`` (``dispatch_wide``, ``shard_spin_mp``; bounds in
``BENCHMARK.json``) and deliberately has no entry here.

Scales are chosen so a full run stays in seconds on commodity hardware
while still separating O(n)-per-draw from O(log n)-per-draw behaviour
by well over the CI tolerance band.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Tuple

__all__ = ["benchmark_suite"]

#: A benchmark: (name, params, setup) where setup() -> (fn, ops) -- see
#: repro.perf.harness for the contract.
BenchmarkEntry = Tuple[str, Dict[str, Any],
                       Callable[[], Tuple[Callable[[], None], int]]]


def _draw_list(clients: int, draws: int):
    def setup():
        from repro.core.lottery import ListLottery
        from repro.core.prng import ParkMillerPRNG

        values = {index: float(1 + (index % 17)) for index in range(clients)}
        lottery = ListLottery(value_of=values.__getitem__, move_to_front=True)
        for index in range(clients):
            lottery.add(index)
        prng = ParkMillerPRNG(1234)

        def fn() -> None:
            for _ in range(draws):
                lottery.draw(prng)

        return fn, draws

    return setup


def _draw_tree(clients: int, draws: int):
    def setup():
        from repro.core.lottery import TreeLottery
        from repro.core.prng import ParkMillerPRNG

        lottery: TreeLottery = TreeLottery()
        for index in range(clients):
            lottery.add(index, float(1 + (index % 17)))
        prng = ParkMillerPRNG(1234)

        def fn() -> None:
            for _ in range(draws):
                lottery.draw(prng)

        return fn, draws

    return setup


def _currency_deep(depth: int, rounds: int):
    def setup():
        from repro.core.tickets import Ledger, TicketHolder

        ledger = Ledger()
        previous = ledger.base
        for level in range(depth):
            currency = ledger.create_currency(f"level{level}")
            ledger.create_ticket(1000.0, currency=previous, fund=currency)
            previous = currency
        holder = TicketHolder("leaf")
        leaf_ticket = ledger.create_ticket(100.0, currency=previous,
                                           fund=holder)
        sibling = TicketHolder("sibling")
        ledger.create_ticket(300.0, currency=previous, fund=sibling)
        holder.start_competing()
        sibling.start_competing()

        def fn() -> None:
            for index in range(rounds):
                # Inflate and revalue: every set_amount invalidates the
                # valuation caches down the chain, every funding() call
                # rebuilds them.
                leaf_ticket.set_amount(100.0 + (index % 7))
                holder.funding()
                sibling.funding()

        return fn, rounds

    return setup


def _ipc_pingpong(calls: int):
    def setup():
        from repro.core.prng import ParkMillerPRNG
        from repro.core.tickets import Ledger
        from repro.kernel.ipc import Port
        from repro.kernel.kernel import Kernel
        from repro.kernel.syscalls import Call, Compute, Receive, Reply
        from repro.schedulers.lottery_policy import LotteryPolicy
        from repro.sim.engine import Engine

        engine = Engine()
        ledger = Ledger()
        kernel = Kernel(
            engine,
            LotteryPolicy(ledger, prng=ParkMillerPRNG(5)),
            ledger=ledger,
            quantum=10.0,
        )
        port = Port(kernel, "bench")
        done = {"calls": 0}

        def client(ctx):
            while True:
                yield Call(port, "ping")
                done["calls"] += 1
                yield Compute(0.5)

        def server(ctx):
            while True:
                request = yield Receive(port)
                yield Compute(0.5)
                yield Reply(request, "pong")

        kernel.spawn(server, "server", tickets=100.0)
        kernel.spawn(client, "client", tickets=100.0)
        horizon = calls * 2.0  # two 0.5ms compute legs + slack per call

        def fn() -> None:
            kernel.run_until(horizon)

        return fn, calls

    return setup


def _checkpoint_capture(threads: int, captures: int):
    def setup():
        from repro.checkpoint.capture import capture_tree
        from repro.checkpoint.registry import build_recipe

        fundings = [float(10 + (index % 23)) for index in range(threads)]
        handle = build_recipe("lottery-mix",
                              {"seed": 11, "fundings": fundings})
        handle.advance(2_000.0)

        def fn() -> None:
            for _ in range(captures):
                capture_tree(handle)

        return fn, captures

    return setup


def _export_chrome(exports: int):
    def setup():
        from repro.checkpoint.registry import build_recipe
        from repro.telemetry.exporters import export_chrome
        from repro.telemetry.probe import Telemetry

        handle = build_recipe("lottery-mix", {"seed": 13})
        telemetry = Telemetry()
        telemetry.instrument_handle(handle)
        handle.advance(5_000.0)
        telemetry.finalize(handle.now)

        def fn() -> None:
            for _ in range(exports):
                export_chrome(telemetry.tracer)

        return fn, exports

    return setup


def benchmark_suite(quick: bool = False) -> List[BenchmarkEntry]:
    """The ordered benchmark list.

    ``quick`` shrinks inner-loop counts (CI smoke and the test suite);
    names and scales stay identical so reports remain comparable --
    only ops/sec and percentiles move.
    """
    draws = 200 if quick else 2_000
    rounds = 500 if quick else 5_000
    calls = 200 if quick else 2_000
    captures = 3 if quick else 20
    exports = 3 if quick else 20
    return [
        ("draw.list.1000", {"clients": 1_000, "draws": draws},
         _draw_list(1_000, draws)),
        ("draw.tree.10000", {"clients": 10_000, "draws": draws * 5},
         _draw_tree(10_000, draws * 5)),
        ("currency.deep.20", {"depth": 20, "rounds": rounds},
         _currency_deep(20, rounds)),
        ("ipc.pingpong", {"calls": calls}, _ipc_pingpong(calls)),
        ("checkpoint.capture.300", {"threads": 300, "captures": captures},
         _checkpoint_capture(300, captures)),
        ("export.chrome", {"exports": exports}, _export_chrome(exports)),
    ]
