"""Tests for tickets, currencies, and the funding graph (paper §3-4)."""

import pytest

from repro.core.tickets import Ledger, TicketHolder
from repro.core.transfers import split_transfer
from repro.errors import (
    CurrencyCycleError,
    CurrencyError,
    TicketError,
)


# The four ways an amount gets minted: a ticket, a resize, a spawned
# thread's funding and a split transfer's share.

def _create(ledger, amount):
    ledger.create_ticket(amount)


def _resize(ledger, amount):
    ledger.create_ticket(1.0).set_amount(amount)


def _spawn(ledger, amount):
    from repro.kernel.kernel import Kernel
    from repro.schedulers.lottery_policy import LotteryPolicy
    from repro.sim.engine import Engine

    def body(ctx):
        yield from ()

    kernel = Kernel(Engine(), LotteryPolicy(ledger), ledger=ledger)
    kernel.spawn(body, "a", tickets=amount)


def _split(ledger, weight):
    source = TicketHolder("source")
    ledger.create_ticket(10.0, fund=source)
    split_transfer(ledger, source, [(TicketHolder("server"), weight)])


class TestLedgerBasics:
    def test_base_currency_exists(self, ledger):
        assert ledger.base.is_base
        assert ledger.currency("base") is ledger.base

    def test_create_and_lookup_currency(self, ledger):
        alice = ledger.create_currency("alice")
        assert ledger.currency("alice") is alice
        assert not alice.is_base

    def test_duplicate_currency_rejected(self, ledger):
        ledger.create_currency("alice")
        with pytest.raises(CurrencyError):
            ledger.create_currency("alice")

    def test_unknown_currency_lookup(self, ledger):
        with pytest.raises(CurrencyError):
            ledger.currency("nope")

    def test_base_cannot_be_destroyed(self, ledger):
        with pytest.raises(CurrencyError):
            ledger.base.destroy()

    def test_destroy_empty_currency(self, ledger):
        alice = ledger.create_currency("alice")
        alice.destroy()
        with pytest.raises(CurrencyError):
            ledger.currency("alice")

    def test_destroy_currency_with_issue_rejected(self, ledger):
        alice = ledger.create_currency("alice")
        ledger.create_ticket(10, currency=alice)
        with pytest.raises(CurrencyError):
            alice.destroy()

    def test_destroying_currency_unfunds_backing(self, ledger):
        alice = ledger.create_currency("alice")
        backing = ledger.create_ticket(100, fund=alice)
        alice.destroy()
        assert backing.target is None

    def test_snapshot_lists_every_currency(self, ledger):
        ledger.create_currency("a")
        ledger.create_currency("b")
        snapshot = ledger.snapshot()
        assert set(snapshot) == {"base", "a", "b"}


class TestTicketBasics:
    def test_negative_amount_rejected(self, ledger):
        with pytest.raises(TicketError):
            ledger.create_ticket(-1)

    def test_ticket_funds_holder_and_detaches(self, ledger):
        holder = TicketHolder("h")
        ticket = ledger.create_ticket(100, fund=holder)
        assert ticket in holder.tickets
        ticket.unfund()
        assert ticket not in holder.tickets
        assert ticket.target is None

    def test_double_fund_rejected(self, ledger):
        holder = TicketHolder("h")
        ticket = ledger.create_ticket(100, fund=holder)
        with pytest.raises(TicketError):
            ticket.fund(holder)

    def test_unfund_is_idempotent(self, ledger):
        ticket = ledger.create_ticket(10)
        ticket.unfund()
        ticket.unfund()

    def test_destroy_removes_from_currency_issue(self, ledger):
        ticket = ledger.create_ticket(10)
        assert ticket in ledger.base.issued
        ticket.destroy()
        assert ticket not in ledger.base.issued

    def test_set_amount_updates_active_sum(self, ledger):
        holder = TicketHolder("h")
        ticket = ledger.create_ticket(100, fund=holder)
        holder.start_competing()
        assert ledger.base.active_amount == 100
        ticket.set_amount(250)
        assert ledger.base.active_amount == 250

    def test_set_amount_rejects_negative(self, ledger):
        ticket = ledger.create_ticket(10)
        with pytest.raises(TicketError):
            ticket.set_amount(-1)

    @pytest.mark.parametrize("mint, amount, named", [
        (_create, float("nan"), "nan"),
        (_create, float("inf"), "inf"),
        (_create, float("-inf"), "-inf"),
        (_create, -1, "-1"),
        (_resize, float("nan"), "nan"),
        (_resize, float("inf"), "inf"),
        (_resize, float("-inf"), "-inf"),
        (_spawn, float("nan"), "nan"),
        (_spawn, float("inf"), "inf"),
        # A NaN weight makes a NaN share; an inf one, inf / inf.
        (_split, float("nan"), "nan"),
        (_split, float("inf"), "nan"),
    ], ids=lambda value: getattr(value, "__name__", None))
    def test_amount_outside_zero_to_inf_is_refused(self, ledger, mint,
                                                   amount, named):
        """NaN compares false with everything, so a bare ``amount < 0``
        would let it through into every lottery total; inf would make
        every other ticket worth nothing.  Each mint path refuses it,
        naming the value, and leaves no such ticket behind."""
        with pytest.raises(TicketError, match="must be finite and "
                           f"non-negative, got {named}$"):
            mint(ledger, amount)
        assert all(0 <= t.amount < float("inf")
                   for c in ledger.currencies() for t in c.issued)

    def test_wrong_ledger_currency_rejected(self, ledger):
        other = Ledger()
        foreign = other.create_currency("foreign")
        with pytest.raises(TicketError):
            ledger.create_ticket(10, currency=foreign)

    def test_funding_a_currency_of_another_ledger_is_refused(self, ledger):
        """Value would leak across ledgers: a holder of the foreign
        currency would be funded by issue its own ledger never counts
        (its ``total_active_base()`` stays 0)."""
        other = Ledger()
        foreign = other.create_currency("foreign")
        ticket = ledger.create_ticket(100)
        with pytest.raises(TicketError, match="'foreign' of a different"):
            ticket.fund(foreign)
        assert ticket.target is None and foreign.backing == []
        holder = TicketHolder("h")
        other.create_ticket(10, currency=foreign, fund=holder)
        holder.start_competing()
        assert holder.funding() == 0.0 == other.total_active_base()


class TestActivationPropagation:
    def test_holder_competing_activates_tickets(self, ledger):
        holder = TicketHolder("h")
        ticket = ledger.create_ticket(100, fund=holder)
        assert not ticket.active
        holder.start_competing()
        assert ticket.active
        holder.stop_competing()
        assert not ticket.active

    def test_attach_while_competing_activates_immediately(self, ledger):
        holder = TicketHolder("h")
        holder.start_competing()
        ticket = ledger.create_ticket(100, fund=holder)
        assert ticket.active
        assert ledger.base.active_amount == 100

    def test_propagation_through_currency(self, ledger):
        alice = ledger.create_currency("alice")
        backing = ledger.create_ticket(1000, fund=alice)
        holder = TicketHolder("h")
        thread_ticket = ledger.create_ticket(100, currency=alice, fund=holder)
        # Nothing active yet: the backing ticket is dormant too.
        assert not backing.active
        holder.start_competing()
        # Activation propagated: alice now has active issue, so its
        # backing base ticket activates (paper section 4.4).
        assert thread_ticket.active
        assert backing.active
        assert ledger.base.active_amount == 1000
        holder.stop_competing()
        assert not backing.active
        assert ledger.base.active_amount == 0

    def test_partial_deactivation_keeps_backing_active(self, ledger):
        alice = ledger.create_currency("alice")
        backing = ledger.create_ticket(1000, fund=alice)
        h1, h2 = TicketHolder("h1"), TicketHolder("h2")
        ledger.create_ticket(100, currency=alice, fund=h1)
        ledger.create_ticket(200, currency=alice, fund=h2)
        h1.start_competing()
        h2.start_competing()
        assert alice.active_amount == 300
        h1.stop_competing()
        # One consumer remains: backing stays active.
        assert backing.active
        assert alice.active_amount == 200


class TestValuation:
    def test_base_ticket_worth_face_value(self, ledger):
        holder = TicketHolder("h")
        ticket = ledger.create_ticket(42, fund=holder)
        holder.start_competing()
        assert ticket.base_value() == 42

    def test_inactive_ticket_worth_nothing(self, ledger):
        holder = TicketHolder("h")
        ticket = ledger.create_ticket(42, fund=holder)
        assert ticket.base_value() == 0.0

    def test_paper_figure3_worked_example(self, ledger):
        """Figure 3: alice=1000 base, bob=2000 base; task1 inactive,
        task2 = 200.alice with threads 200+300, task3 = 100.bob with
        thread4 = 100; values 400/600/2000."""
        alice = ledger.create_currency("alice")
        bob = ledger.create_currency("bob")
        ledger.create_ticket(1000, fund=alice)
        ledger.create_ticket(2000, fund=bob)
        task1 = ledger.create_currency("task1")
        task2 = ledger.create_currency("task2")
        task3 = ledger.create_currency("task3")
        ledger.create_ticket(100, currency=alice, fund=task1)  # inactive
        ledger.create_ticket(200, currency=alice, fund=task2)
        ledger.create_ticket(100, currency=bob, fund=task3)
        thread1 = TicketHolder("thread1")  # never competes
        thread2, thread3, thread4 = (
            TicketHolder(f"thread{i}") for i in (2, 3, 4)
        )
        ledger.create_ticket(100, currency=task1, fund=thread1)
        ledger.create_ticket(200, currency=task2, fund=thread2)
        ledger.create_ticket(300, currency=task2, fund=thread3)
        ledger.create_ticket(100, currency=task3, fund=thread4)
        for holder in (thread2, thread3, thread4):
            holder.start_competing()
        assert thread2.funding() == pytest.approx(400)
        assert thread3.funding() == pytest.approx(600)
        assert thread4.funding() == pytest.approx(2000)
        assert ledger.total_active_base() == pytest.approx(3000)

    def test_currency_value_sums_backing(self, ledger):
        alice = ledger.create_currency("alice")
        ledger.create_ticket(300, fund=alice)
        ledger.create_ticket(200, fund=alice)
        holder = TicketHolder("h")
        ledger.create_ticket(1, currency=alice, fund=holder)
        holder.start_competing()
        assert alice.base_value() == pytest.approx(500)

    def test_exchange_rate(self, ledger):
        alice = ledger.create_currency("alice")
        ledger.create_ticket(1000, fund=alice)
        holder = TicketHolder("h")
        ledger.create_ticket(100, currency=alice, fund=holder)
        holder.start_competing()
        # 1 alice unit = 10 base units.
        assert alice.exchange_rate(ledger.base) == pytest.approx(10.0)

    def test_exchange_rate_with_inactive_counterparty(self, ledger):
        alice = ledger.create_currency("alice")
        bob = ledger.create_currency("bob")
        ledger.create_ticket(1000, fund=alice)
        holder = TicketHolder("h")
        ledger.create_ticket(100, currency=alice, fund=holder)
        holder.start_competing()
        with pytest.raises(CurrencyError):
            alice.exchange_rate(bob)

    def test_inflation_dilutes_siblings(self, ledger):
        alice = ledger.create_currency("alice")
        ledger.create_ticket(1000, fund=alice)
        h1, h2 = TicketHolder("h1"), TicketHolder("h2")
        t1 = ledger.create_ticket(100, currency=alice, fund=h1)
        ledger.create_ticket(100, currency=alice, fund=h2)
        h1.start_competing()
        h2.start_competing()
        assert h1.funding() == pytest.approx(500)
        # h1 inflates its ticket; h2's share shrinks, total conserved.
        t1.set_amount(300)
        assert h1.funding() == pytest.approx(750)
        assert h2.funding() == pytest.approx(250)
        assert ledger.total_active_base() == pytest.approx(1000)

    def test_nominal_value_defined_while_inactive(self, ledger):
        alice = ledger.create_currency("alice")
        ledger.create_ticket(1000, fund=alice)
        holder = TicketHolder("h")
        ledger.create_ticket(100, currency=alice, fund=holder)
        assert holder.funding() == 0.0
        assert holder.nominal_funding() == pytest.approx(1000)

    def test_value_cache_invalidated_by_mutation(self, ledger):
        alice = ledger.create_currency("alice")
        backing = ledger.create_ticket(500, fund=alice)
        holder = TicketHolder("h")
        ledger.create_ticket(1, currency=alice, fund=holder)
        holder.start_competing()
        assert alice.base_value() == pytest.approx(500)
        backing.set_amount(900)
        assert alice.base_value() == pytest.approx(900)

    def test_funding_read_through_a_clamped_currency_follows_it(self, ledger):
        """An active amount below 1e-9 clamps to 0, so the share of a
        5e-10 ticket reads 0.0; the value cached for it must still go
        stale when a sibling's activation gives the currency a real
        active amount and the ticket a real share."""
        dusty = ledger.create_currency("dusty")
        ledger.create_ticket(100, fund=dusty)
        dust, heavy = TicketHolder("dust"), TicketHolder("heavy")
        ledger.create_ticket(5e-10, currency=dusty, fund=dust)
        ledger.create_ticket(10, currency=dusty, fund=heavy)
        dust.start_competing()
        assert dusty.active_amount == 0.0 and dust.funding() == 0.0
        heavy.start_competing()    # the clamped 5e-10 stays lost: 10.0
        assert dust.funding() == 100.0 * (5e-10 / 10.0) == 5e-09


class TestCycleDetection:
    def test_self_funding_rejected(self, ledger):
        alice = ledger.create_currency("alice")
        ticket = ledger.create_ticket(10, currency=alice)
        with pytest.raises(CurrencyCycleError):
            ticket.fund(alice)

    def test_two_currency_cycle_rejected(self, ledger):
        a = ledger.create_currency("a")
        b = ledger.create_currency("b")
        ledger.create_ticket(10, currency=a, fund=b)
        bad = ledger.create_ticket(10, currency=b)
        with pytest.raises(CurrencyCycleError):
            bad.fund(a)

    def test_long_cycle_rejected(self, ledger):
        names = ["c1", "c2", "c3", "c4"]
        currencies = [ledger.create_currency(n) for n in names]
        for upstream, downstream in zip(currencies, currencies[1:]):
            ledger.create_ticket(10, currency=upstream, fund=downstream)
        bad = ledger.create_ticket(10, currency=currencies[-1])
        with pytest.raises(CurrencyCycleError):
            bad.fund(currencies[0])

    def test_diamond_graph_allowed(self, ledger):
        # a funds b and c; b and c both fund d: acyclic, legal.
        a = ledger.create_currency("a")
        b = ledger.create_currency("b")
        c = ledger.create_currency("c")
        d = ledger.create_currency("d")
        ledger.create_ticket(10, currency=a, fund=b)
        ledger.create_ticket(10, currency=a, fund=c)
        ledger.create_ticket(10, currency=b, fund=d)
        ledger.create_ticket(10, currency=c, fund=d)  # should not raise
