"""repro: a reproduction of Waldspurger & Weihl's lottery scheduling (OSDI '94).

A pure-Python discrete-event reimplementation of the paper's entire
system: the ticket/currency resource-rights model, lottery and inverse
lotteries, compensation tickets, ticket transfers over IPC, a simulated
microkernel with pluggable scheduling policies (lottery plus classical
baselines), lottery-scheduled synchronization, memory and I/O
generalizations, the paper's workloads, and experiment drivers that
regenerate every figure in the evaluation.

Quickstart::

    from repro import simulate_shares

    shares = simulate_shares({"A": 2, "B": 1}, duration_ms=60_000, seed=7)
    print(shares)   # {'A': ~0.667, 'B': ~0.333}
"""

from typing import Dict

from repro._exports import lazy_exports

__version__ = "1.0.0"

__all__ = [
    "CompensationManager",
    "Compute",
    "Currency",
    "Engine",
    "ErrorDrivenInflator",
    "FairSharePolicy",
    "FixedPriorityPolicy",
    "Kernel",
    "Ledger",
    "ListLottery",
    "LotteryMutex",
    "LotteryPolicy",
    "Mutex",
    "ParkMillerPRNG",
    "Port",
    "RoundRobinPolicy",
    "SchedulingPolicy",
    "StridePolicy",
    "Task",
    "Thread",
    "Ticket",
    "TicketHolder",
    "TimesharingPolicy",
    "TransferHandle",
    "TreeLottery",
    "fastrand",
    "hold_lottery",
    "inverse_lottery",
    "simulate_shares",
    "transfer_funding",
    "__version__",
]

__getattr__ = lazy_exports(globals(), {
    "CompensationManager": ".core.compensation",
    "ErrorDrivenInflator": ".core.inflation", "inverse_lottery": ".core.inverse",
    "ListLottery": ".core.lottery", "TreeLottery": ".core.lottery",
    "hold_lottery": ".core.lottery", "fastrand": ".core.prng",
    "ParkMillerPRNG": ".core.prng", "Currency": ".core.tickets",
    "Ledger": ".core.tickets", "Ticket": ".core.tickets",
    "TicketHolder": ".core.tickets", "TransferHandle": ".core.transfers",
    "transfer_funding": ".core.transfers", "Kernel": ".kernel.kernel",
    "Port": ".kernel.ipc", "Compute": ".kernel.syscalls",
    "Task": ".kernel.thread", "Thread": ".kernel.thread",
    "SchedulingPolicy": ".schedulers.base",
    "FairSharePolicy": ".schedulers.fair_share",
    "LotteryPolicy": ".schedulers.lottery_policy",
    "FixedPriorityPolicy": ".schedulers.priority",
    "RoundRobinPolicy": ".schedulers.round_robin",
    "StridePolicy": ".schedulers.stride",
    "TimesharingPolicy": ".schedulers.timesharing", "Engine": ".sim.engine",
    "LotteryMutex": ".sync.mutex", "Mutex": ".sync.mutex",
})


def simulate_shares(
    tickets: Dict[str, float],
    duration_ms: float = 60_000.0,
    quantum_ms: float = 100.0,
    seed: int = 1,
) -> Dict[str, float]:
    """Run compute-bound threads with the given ticket allocation.

    A convenience entry point: spawns one always-runnable thread per
    entry of ``tickets``, lottery-schedules them for ``duration_ms`` of
    virtual time, and returns each thread's observed CPU share.
    """
    from repro.core.prng import ParkMillerPRNG
    from repro.core.tickets import Ledger
    from repro.kernel.kernel import Kernel
    from repro.kernel.syscalls import Compute
    from repro.schedulers.lottery_policy import LotteryPolicy
    from repro.sim.engine import Engine

    engine = Engine()
    ledger = Ledger()
    policy = LotteryPolicy(ledger, prng=ParkMillerPRNG(seed))
    kernel = Kernel(engine, policy, ledger=ledger, quantum=quantum_ms)

    def spin(ctx):
        while True:
            yield Compute(quantum_ms)

    threads = {
        name: kernel.spawn(spin, name, tickets=amount)
        for name, amount in tickets.items()
    }
    kernel.run_until(duration_ms)
    total = sum(t.cpu_time for t in threads.values()) or 1.0
    return {name: t.cpu_time / total for name, t in threads.items()}
