"""Edge-case tests for the ticket/currency object model."""

import pytest

from repro.core.tickets import TicketHolder
from repro.errors import TicketError


class TestDestroyedTickets:
    def test_destroyed_ticket_cannot_be_refunded(self, ledger):
        ticket = ledger.create_ticket(10)
        ticket.destroy()
        with pytest.raises(TicketError):
            ticket.fund(TicketHolder("h"))

    def test_destroy_active_ticket_deactivates(self, ledger):
        holder = TicketHolder("h")
        ticket = ledger.create_ticket(100, fund=holder)
        holder.start_competing()
        assert ledger.base.active_amount == 100
        ticket.destroy()
        assert ledger.base.active_amount == 0
        assert ticket not in holder.tickets

    def test_double_destroy_harmless(self, ledger):
        ticket = ledger.create_ticket(10)
        ticket.destroy()
        epoch = ledger.snapshot_state()["epoch"]
        ticket.destroy()
        assert ledger.snapshot_state()["epoch"] == epoch

    @pytest.mark.parametrize("operation, call", [
        ("activate", lambda ticket: ticket.activate()),
        ("deactivate", lambda ticket: ticket.deactivate()),
        ("set_amount", lambda ticket: ticket.set_amount(5)),
    ])
    def test_destroyed_ticket_refuses_by_name(self, ledger, operation, call):
        """Each used to succeed silently; ``activate`` left the base
        active amount at 10 with no active issue behind it."""
        from repro.analysis.sanitizer import sanitize_ledger

        team = ledger.create_currency("team")
        ledger.create_ticket(100, fund=team)
        sibling, holder = TicketHolder("sibling"), TicketHolder("h")
        ledger.create_ticket(10, currency=team, fund=sibling)
        ticket = ledger.create_ticket(10, currency=team, fund=holder)
        sibling.start_competing()
        ticket.destroy()
        epoch = ledger.snapshot_state()["epoch"]
        with pytest.raises(TicketError, match=f"cannot {operation} "
                                              "(on )?a destroyed ticket"):
            call(ticket)
        assert not ticket.active and ticket.amount == 10
        assert team.active_amount == 10
        assert sibling.funding() == 100
        assert ledger.snapshot_state()["epoch"] == epoch
        assert sanitize_ledger(ledger) == []

    def test_destroy_deactivates_a_hand_activated_orphan(self, ledger):
        """``unfund`` has no edge to deactivate an unfunded ticket
        through; destroy must not strand its amount as active."""
        ticket = ledger.create_ticket(10)
        ticket.activate()
        assert ledger.base.active_amount == 10
        ticket.destroy()
        assert not ticket.active
        assert ledger.base.active_amount == 0


class TestZeroAmountTickets:
    def test_zero_ticket_is_legal_but_worthless(self, ledger):
        holder = TicketHolder("h")
        ticket = ledger.create_ticket(0, fund=holder)
        holder.start_competing()
        assert ticket.active
        assert holder.funding() == 0.0

    def test_zero_ticket_can_be_inflated_later(self, ledger):
        holder = TicketHolder("h")
        ticket = ledger.create_ticket(0, fund=holder)
        holder.start_competing()
        ticket.set_amount(75)
        assert holder.funding() == pytest.approx(75)
        assert ledger.base.active_amount == pytest.approx(75)

    def test_deflating_a_currencys_only_active_issue_moves_its_backing(
            self, ledger):
        """``set_amount`` on an active ticket is the one mutation that
        can cross a currency's zero <-> non-zero edge in either
        direction: to 0 the backing ticket leaves the base active
        amount, and back up it rejoins it."""
        from repro.analysis.sanitizer import sanitize_ledger

        team = ledger.create_currency("team")
        backing = ledger.create_ticket(100, fund=team)
        holder = TicketHolder("h")
        ticket = ledger.create_ticket(10, currency=team, fund=holder)
        holder.start_competing()
        assert backing.active and holder.funding() == 100
        ticket.set_amount(0)
        assert ticket.active and team.active_amount == 0
        assert not backing.active
        assert ledger.base.active_amount == 0
        assert holder.funding() == 0
        assert sanitize_ledger(ledger) == []
        ticket.set_amount(75)
        assert backing.active
        assert ledger.base.active_amount == 100
        assert holder.funding() == 100
        assert sanitize_ledger(ledger) == []


class TestRefunding:
    def test_ticket_can_move_between_holders(self, ledger):
        a, b = TicketHolder("a"), TicketHolder("b")
        a.start_competing()
        b.start_competing()
        ticket = ledger.create_ticket(60, fund=a)
        assert a.funding() == 60
        ticket.unfund()
        ticket.fund(b)
        assert a.funding() == 0
        assert b.funding() == 60

    def test_ticket_can_move_from_holder_to_currency(self, ledger):
        holder = TicketHolder("h")
        group = ledger.create_currency("group")
        member = TicketHolder("member")
        ledger.create_ticket(10, currency=group, fund=member)
        member.start_competing()
        ticket = ledger.create_ticket(40, fund=holder)
        ticket.unfund()
        ticket.fund(group)
        assert member.funding() == pytest.approx(40)


class TestHolderLifecycle:
    def test_double_start_competing_is_idempotent(self, ledger):
        holder = TicketHolder("h")
        ledger.create_ticket(30, fund=holder)
        holder.start_competing()
        holder.start_competing()
        assert ledger.base.active_amount == 30
        holder.stop_competing()
        holder.stop_competing()
        assert ledger.base.active_amount == 0

    def test_detach_inactive_ticket(self, ledger):
        holder = TicketHolder("h")
        ticket = ledger.create_ticket(10, fund=holder)
        # Never competed: detach must not underflow active amounts.
        ticket.unfund()
        assert ledger.base.active_amount == 0

    def test_funding_currency_value_with_multiple_backers(self, ledger):
        group = ledger.create_currency("group")
        ledger.create_ticket(100, fund=group)
        ledger.create_ticket(50, fund=group)
        third = ledger.create_ticket(25, fund=group)
        holder = TicketHolder("h")
        ledger.create_ticket(1, currency=group, fund=holder)
        holder.start_competing()
        assert holder.funding() == pytest.approx(175)
        third.unfund()
        assert holder.funding() == pytest.approx(150)


class TestLedgerSnapshot:
    def test_snapshot_reflects_activity(self, ledger):
        group = ledger.create_currency("group")
        ledger.create_ticket(200, fund=group)
        holder = TicketHolder("h")
        ledger.create_ticket(20, currency=group, fund=holder)
        holder.start_competing()
        snapshot = ledger.snapshot()
        assert snapshot["group"]["active_amount"] == 20
        assert snapshot["group"]["base_value"] == pytest.approx(200)
        assert snapshot["base"]["active_amount"] == 200
        assert snapshot["group"]["backing_tickets"] == 1
        assert snapshot["group"]["issued_tickets"] == 1
