"""Ticket inflation and dynamic funding control (paper sections 3.2, 5.2).

**Ticket inflation** lets a client escalate its resource rights by
creating more tickets in a currency it is allowed to inflate.  Among
mutually trusting clients this replaces explicit communication: a task
that needs to run faster simply inflates; the currency abstraction
contains the effect so unrelated modules are insulated (section 5.5).

This module provides:

* :func:`set_share` / :func:`inflate` / :func:`deflate` -- primitive
  adjustments on a holder's ticket within a currency;
* :class:`ErrorDrivenInflator` -- the Monte-Carlo controller of section
  5.2: each task periodically sets its ticket value proportional to the
  **square of its relative error**, so young experiments with large
  error race ahead and taper off as they converge (any monotonically
  increasing function of the error would converge; the square is the
  paper's choice, and :class:`ErrorDrivenInflator` accepts an arbitrary
  exponent so the linear/cubic variants the paper mentions can be
  explored).
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.core.tickets import Currency, Ticket, TicketHolder
from repro.errors import InsufficientTicketsError, TicketError

__all__ = ["set_share", "inflate", "deflate", "ErrorDrivenInflator"]


def _holder_ticket(holder: TicketHolder, currency: Currency) -> Ticket:
    """The holder's (single) ticket denominated in ``currency``."""
    for ticket in holder.tickets:
        if ticket.currency is currency and ticket.tag != "compensation":
            return ticket
    raise TicketError(
        f"holder {holder.name!r} has no ticket in currency {currency.name!r}"
    )


def set_share(holder: TicketHolder, currency: Currency, amount: float) -> None:
    """Set the holder's ticket amount in ``currency`` to ``amount``."""
    _holder_ticket(holder, currency).set_amount(amount)


def inflate(holder: TicketHolder, currency: Currency, delta: float) -> None:
    """Increase the holder's ticket amount by ``delta`` (section 3.2)."""
    if delta < 0:
        raise TicketError(f"inflate requires a non-negative delta, got {delta}")
    ticket = _holder_ticket(holder, currency)
    ticket.set_amount(ticket.amount + delta)


def deflate(holder: TicketHolder, currency: Currency, delta: float) -> None:
    """Decrease the holder's ticket amount by ``delta``."""
    if delta < 0:
        raise TicketError(f"deflate requires a non-negative delta, got {delta}")
    ticket = _holder_ticket(holder, currency)
    if ticket.amount < delta:
        raise InsufficientTicketsError(
            f"cannot deflate {delta:g} from a {ticket.amount:g}-ticket"
        )
    ticket.set_amount(ticket.amount - delta)


class ErrorDrivenInflator:
    """Funding controller: ticket value proportional to error**exponent.

    Section 5.2 runs several Monte-Carlo experiments whose relative
    error shrinks as 1/sqrt(trials); each periodically sets its ticket
    value to ``scale * relative_error ** 2``.  A newly started
    experiment (error ~ 1) then executes at a rate that starts high and
    tapers, letting it catch up to its older peers -- the convergent
    "bumps" of Figure 6.

    Parameters
    ----------
    currency:
        The currency in which the managed tickets are denominated.
    scale:
        Ticket value for a relative error of 1.0.
    exponent:
        Power applied to the error (paper default: 2; a linear function
        converges more slowly, a cubic more rapidly -- section 5.2).
    floor:
        Minimum ticket value, keeping converged tasks schedulable.
    """

    def __init__(
        self,
        currency: Currency,
        scale: float = 1000.0,
        exponent: float = 2.0,
        floor: float = 1.0,
    ) -> None:
        if scale <= 0:
            raise TicketError(f"scale must be positive, got {scale}")
        if floor < 0:
            raise TicketError(f"floor must be non-negative, got {floor}")
        self.currency = currency
        self.scale = scale
        self.exponent = exponent
        self.floor = floor
        self._errors: Dict[int, float] = {}

    def update(self, holder: TicketHolder, relative_error: float) -> float:
        """Re-fund the holder from its current relative error.

        Returns the new ticket amount.  Errors are clamped to [0, 1]:
        a brand-new experiment with no samples reports error 1.
        """
        error = min(max(relative_error, 0.0), 1.0)
        amount = max(self.scale * error**self.exponent, self.floor)
        set_share(holder, self.currency, amount)
        self._errors[id(holder)] = error
        return amount

    def last_error(self, holder: TicketHolder) -> Optional[float]:
        """Most recent error reported for the holder (None if never)."""
        return self._errors.get(id(holder))
