"""The paper's section 5.6 primitives priced as exact work counts.

A draw (list and tree), a currency conversion and an RPC with its
ticket transfer, plus the two serializers nothing else prices: a
checkpoint capture and a Chrome-trace export.  Each workload is built
at a fixed seed and size, warmed up by one operation, then driven
under :func:`tests.conftest.count_work`: Python calls
(``sys.setprofile``) and line events (``sys.settrace``) per unit of
work (a draw, a revaluation, an RPC, a captured thread, an exported
span).  Line events are there because the list draw's scan is one
frame: a second scan shows in its lines and leaves its calls alone.

Counts do not depend on the host, so a gate can be tight where a
wall-clock one could not resolve its own band.  ``ROWS`` holds the
CPython 3.11 readings and a gate fails above 1.2 times either; each
workload's facts (draws held, RPCs completed, threads captured, spans
exported, digests) are pinned exactly, so no change passes by doing
less.  docs/PERFORMANCE.md section 2 has the readings and the planted
duplicates that fail them.

``PYTHONPATH=src:. python -m tests.perf.test_work_counts`` prints the
six readings as a markdown table.
"""

from __future__ import annotations

import pytest

from repro.core.prng import ParkMillerPRNG
from tests.conftest import count_work

#: How far a count may drift above its CPython 3.11 reading before the
#: gate fails: headroom for the other interpreters CI runs.
HEADROOM = 1.2


def _draw_list():
    from repro.core.lottery import ListLottery

    values = {index: float(1 + index % 17) for index in range(1_000)}
    lottery = ListLottery(value_of=values.__getitem__, move_to_front=True)
    for index in range(1_000):
        lottery.add(index)
    prng = ParkMillerPRNG(1234)

    def draws(count):
        for _ in range(count):
            lottery.draw(prng)

    draws(1)
    calls, lines = count_work(draws, 200, lines=True)
    return 200, calls, lines, {"draws": lottery.stats.draws,
                               "examined": lottery.stats.comparisons,
                               "head": lottery.head()}


def _draw_tree():
    from repro.core.lottery import TreeLottery

    lottery = TreeLottery()
    for index in range(10_000):
        lottery.add(index, float(1 + index % 17))
    prng = ParkMillerPRNG(1234)

    def draws(count):
        for _ in range(count):
            lottery.draw(prng)

    draws(1)
    calls, lines = count_work(draws, 1_000, lines=True)
    return 1_000, calls, lines, {"draws": lottery.stats.draws,
                                 "levels": lottery.stats.comparisons,
                                 "next": lottery.draw(prng)}


def _currency_deep():
    from repro.core.tickets import Ledger, TicketHolder

    ledger = Ledger()
    previous = ledger.base
    for level in range(20):
        currency = ledger.create_currency(f"level{level}")
        ledger.create_ticket(1000.0, currency=previous, fund=currency)
        previous = currency
    holder = TicketHolder("leaf")
    leaf_ticket = ledger.create_ticket(100.0, currency=previous, fund=holder)
    sibling = TicketHolder("sibling")
    ledger.create_ticket(300.0, currency=previous, fund=sibling)
    holder.start_competing()
    sibling.start_competing()

    def rounds(count):
        # Inflate and revalue: every set_amount invalidates the
        # valuation caches down the chain, every funding() call
        # rebuilds them.
        for index in range(count):
            leaf_ticket.set_amount(100.0 + (index % 7))
            holder.funding()
            sibling.funding()

    rounds(1)
    calls, lines = count_work(rounds, 500, lines=True)
    return 500, calls, lines, {"epoch": ledger.snapshot_state()["epoch"],
                               "leaf": holder.funding()}


def _ipc_pingpong():
    from repro.core.tickets import Ledger
    from repro.kernel.ipc import Port
    from repro.kernel.kernel import Kernel
    from repro.kernel.syscalls import Call, Compute, Receive, Reply
    from repro.schedulers.lottery_policy import LotteryPolicy
    from repro.sim.engine import Engine

    ledger = Ledger()
    kernel = Kernel(Engine(), LotteryPolicy(ledger, prng=ParkMillerPRNG(5)),
                    ledger=ledger, quantum=10.0)
    kernel.invariant_hooks.clear()
    port = Port(kernel, "bench")

    def client(ctx):
        while True:
            yield Call(port, "ping")
            yield Compute(0.5)

    def server(ctx):
        while True:
            request = yield Receive(port)
            yield Compute(0.5)
            yield Reply(request, "pong")

    kernel.spawn(server, "server", tickets=100.0)
    kernel.spawn(client, "client", tickets=100.0)
    kernel.run_until(1.0)
    warm = port.replies_sent
    calls, lines = count_work(kernel.run_until, 400.0, lines=True)
    rpcs = port.replies_sent - warm
    return rpcs, calls, lines, {"rpcs": rpcs,
                                "transfers": calls["transfer_funding"],
                                "dispatches": kernel.dispatch_count,
                                "epoch": ledger.snapshot_state()["epoch"]}


def _checkpoint_capture():
    from repro.checkpoint.capture import capture_tree
    from repro.checkpoint.registry import build_recipe
    from repro.checkpoint.statetree import tree_checksum

    fundings = [float(10 + (index % 23)) for index in range(300)]
    handle = build_recipe("lottery-mix", {"seed": 11, "fundings": fundings})
    handle.advance(2_000.0)
    trees = []

    def captures(count):
        for _ in range(count):
            trees.append(capture_tree(handle))

    captures(1)
    calls, lines = count_work(captures, 3, lines=True)
    threads = sum(len(tree["kernel"]["threads"]) for tree in trees[1:])
    return threads, calls, lines, {"threads": threads,
                                   "sha256": tree_checksum(trees[-1])[:16]}


def _export_chrome():
    from repro.checkpoint.registry import build_recipe
    from repro.telemetry.exporters import export_chrome, sha256_text
    from repro.telemetry.probe import Telemetry

    handle = build_recipe("lottery-mix", {"seed": 13})
    telemetry = Telemetry()
    telemetry.instrument_handle(handle)
    handle.advance(5_000.0)
    telemetry.finalize(handle.now)
    telemetry.close()
    texts = []

    def exports(count):
        for _ in range(count):
            texts.append(export_chrome(telemetry.tracer))

    exports(1)
    calls, lines = count_work(exports, 3, lines=True)
    spans = 3 * len(telemetry.tracer)
    return spans, calls, lines, {"spans": spans,
                                 "sha256": sha256_text(texts[-1])[:16]}


#: row: (workload, unit, calls and line events per unit on CPython
#: 3.11, the facts pinned exactly)
ROWS = {
    "draw.list.1000": (
        _draw_list, "draw", 3.005, 2_002.1,
        {"draws": 201, "examined": 98_518, "head": 794}),
    "draw.tree.10000": (
        _draw_tree, "draw", 5.001, 162.83,
        {"draws": 1_001, "levels": 13_679, "next": 3_565}),
    "currency.deep.20": (
        _currency_deep, "revaluation", 53.00, 372.0,
        {"epoch": 1_088, "leaf": 253.7313432835821}),
    "ipc.pingpong": (
        _ipc_pingpong, "RPC", 130.01, 1_050.1,
        {"rpcs": 399, "transfers": 399, "dispatches": 803, "epoch": 8_810}),
    "checkpoint.capture.300": (
        _checkpoint_capture, "captured thread", 15.12, 70.64,
        {"threads": 903, "sha256": "07d5b9d1f834ec25"}),
    "export.chrome": (
        _export_chrome, "exported span", 4.266, 26.33,
        {"spans": 432, "sha256": "e1f8092346314d6c"}),
}


def reading(name):
    """``(calls per unit, line events per unit, facts, calls)``."""
    units, calls, lines, facts = ROWS[name][0]()
    return sum(calls.values()) / units, lines / units, facts, calls


@pytest.mark.parametrize("name", list(ROWS))
def test_work_per_unit_stays_within_its_reading(name, race_tracker_off):
    _, _, calls_reading, lines_reading, pinned = ROWS[name]
    per_call, per_line, facts, calls = reading(name)
    assert facts == pinned
    assert per_call <= HEADROOM * calls_reading, calls.most_common(10)
    assert per_line <= HEADROOM * lines_reading, (per_line, lines_reading)


if __name__ == "__main__":
    from repro.analysis.sanitizer import uninstall_autosanitize

    uninstall_autosanitize()
    print("| section 5.6 primitive | unit | calls | lines |")
    print("|---|---|---|---|")
    for name, (_, unit, *_) in ROWS.items():
        per_call, per_line, _, _ = reading(name)
        print(f"| `{name}` | {unit} | {per_call:.2f} | {per_line:.2f} |")
