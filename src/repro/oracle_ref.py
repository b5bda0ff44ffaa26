"""The ledger's valuation, re-derived from its definition (paper §4.4).

A base-currency ticket is worth its face amount, any other ticket its
currency's value times its share of that currency's amount, and a
currency the sum of its backing tickets.  The ledger caches that rule on
two sides: *active* (``funding``, ``base_value``: active tickets only,
shares of the active amount) and *nominal* (``nominal_funding``,
``nominal_base_value``: as if every ticket competed, shares of the whole
issue).  The invariant sanitizer and the ledger property tests check
both against :func:`fresh_valuation`, which reads only ``amount``,
``active``, ``issued``, ``backing`` and ``active_amount``, never a
cached method, and fills no cache, so auditing a run skips every walk
the run skips.  The caches promise bit-identical floats, so sums are
added as the cached paths add them: ``sum()`` where they use ``sum()``
(compensated on CPython >= 3.12), and ``funding()``'s left-to-right
loop from int ``0`` (state trees tell an unfunded int 0 from 0.0).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Dict, Tuple

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.tickets import Currency, Ticket, TicketHolder

__all__ = ["fresh_valuation"]


def fresh_valuation(nominal: bool = False) -> Tuple[
        Callable[["TicketHolder"], float], Callable[["Currency"], float]]:
    """``(funding, currency_value)`` for one side, from the definition.

    ``funding(holder)`` is what ``funding()`` (``nominal_funding()``
    when ``nominal``) must return, and ``currency_value(currency)`` what
    ``base_value()`` (``nominal_base_value()``) must.  Each currency's
    sums are remembered for as long as the returned pair lives: one
    audit or one test read, with no mutation in between.
    """
    values: Dict["Currency", float] = {}
    issues: Dict["Currency", float] = {}

    def amount_of(currency: "Currency") -> float:
        # The amount a share is of: the active one, or the whole issue.
        if not nominal:
            return currency.active_amount
        if currency not in issues:
            issues[currency] = sum(t.amount for t in currency.issued)
        return issues[currency]

    def currency_value(currency: "Currency") -> float:
        if currency.is_base:
            return amount_of(currency)
        if currency not in values:
            values[currency] = sum(ticket_value(t) for t in currency.backing)
        return values[currency]

    def ticket_value(ticket: "Ticket") -> float:
        if not (nominal or ticket.active):
            return 0.0
        currency = ticket.currency
        if currency.is_base:
            return ticket.amount
        amount = amount_of(currency)
        if amount <= 0:
            return 0.0
        return currency_value(currency) * (ticket.amount / amount)

    def funding(holder: "TicketHolder") -> float:
        if nominal:
            return sum(ticket_value(t) for t in holder.tickets)
        total = 0
        for ticket in holder.tickets:
            if ticket.active:
                total = total + ticket_value(ticket)
        return total

    return funding, currency_value
