"""Tests for the section 4.7 user commands."""

import pytest

from repro.cli.commands import (
    fund,
    fundx,
    lscur,
    lstkt,
    mkcur,
    mktkt,
    rmcur,
    rmtkt,
    unfund,
)
from repro.cli.state import CommandState, PermissionError_
from repro.core.tickets import TicketHolder
from repro.errors import ReproError, TicketError


@pytest.fixture
def state():
    return CommandState()


class TestTicketCommands:
    def test_mktkt_creates_named_ticket(self, state):
        output = mktkt(state, ["100", "base", "t1"])
        assert "t1" in output
        assert state.tickets["t1"].amount == 100

    def test_mktkt_autonames(self, state):
        mktkt(state, ["50", "base"])
        assert "t1" in state.tickets

    def test_mktkt_duplicate_name_rejected(self, state):
        mktkt(state, ["1", "base", "x"])
        with pytest.raises(TicketError):
            mktkt(state, ["1", "base", "x"])

    def test_rmtkt(self, state):
        mktkt(state, ["1", "base", "x"])
        rmtkt(state, ["x"])
        assert "x" not in state.tickets

    def test_rmtkt_unknown_rejected(self, state):
        with pytest.raises(TicketError):
            rmtkt(state, ["ghost"])

    def test_usage_errors(self, state):
        with pytest.raises(ReproError):
            mktkt(state, [])
        with pytest.raises(ReproError):
            rmtkt(state, [])


class TestCurrencyCommands:
    def test_mkcur_and_rmcur(self, state):
        mkcur(state, ["alice"])
        assert state.ledger.currency("alice")
        rmcur(state, ["alice"])
        with pytest.raises(ReproError):
            state.ledger.currency("alice")

    def test_rmcur_ownership_enforced(self, state):
        mkcur(state, ["alice"])
        state.user = "mallory"
        with pytest.raises(ReproError):
            rmcur(state, ["alice"])

    def test_fund_and_unfund(self, state):
        mkcur(state, ["alice"])
        mktkt(state, ["200", "base", "t1"])
        fund(state, ["t1", "alice"])
        assert state.tickets["t1"].target is state.ledger.currency("alice")
        unfund(state, ["t1"])
        assert state.tickets["t1"].target is None

    def test_fund_unknown_target_rejected(self, state):
        mktkt(state, ["1", "base", "t1"])
        with pytest.raises(ReproError):
            fund(state, ["t1", "nowhere"])


class TestListingCommands:
    def test_lstkt_lists_tickets(self, state):
        mkcur(state, ["alice"])
        mktkt(state, ["200", "base", "t1"])
        fund(state, ["t1", "alice"])
        listing = lstkt(state, [])
        assert "t1" in listing
        assert "alice" in listing

    def test_lscur_lists_currencies(self, state):
        mkcur(state, ["alice"])
        listing = lscur(state, [])
        assert "base" in listing
        assert "alice" in listing

    def test_listing_args_rejected(self, state):
        with pytest.raises(ReproError):
            lstkt(state, ["junk"])
        with pytest.raises(ReproError):
            lscur(state, ["junk"])


class TestFundx:
    def test_funds_registered_client(self, state):
        holder = TicketHolder("job")
        holder.start_competing()
        state.register_holder("job", holder)
        fundx(state, ["300", "base", "job"])
        assert holder.funding() == pytest.approx(300)

    def test_unknown_client_rejected(self, state):
        with pytest.raises(ReproError):
            fundx(state, ["1", "base", "ghost"])

    def test_duplicate_holder_registration_rejected(self, state):
        state.register_holder("job", TicketHolder("job"))
        with pytest.raises(ReproError):
            state.register_holder("job", TicketHolder("other"))


class TestAccessControl:
    def test_non_owner_cannot_inflate_foreign_currency(self, state):
        mkcur(state, ["alice"])
        state.user = "mallory"
        with pytest.raises(PermissionError_):
            mktkt(state, ["100", "alice"])

    def test_owner_may_inflate_own_currency(self, state):
        state.user = "alice"
        mkcur(state, ["wallet"])
        output = mktkt(state, ["10", "wallet"])
        assert "wallet" in output

    def test_acl_grant_allows_inflation(self, state):
        mkcur(state, ["shared"])
        state.grant_inflation(state.ledger.currency("shared"), "bob")
        state.user = "bob"
        mktkt(state, ["5", "shared"])  # should not raise

    def test_root_may_do_anything(self, state):
        state.user = "alice"
        mkcur(state, ["wallet"])
        state.user = "root"
        mktkt(state, ["5", "wallet"])  # root bypasses the ACL
