"""Named-object registry backing the command-line interface (§4.7).

The paper's user commands (``mktkt``, ``mkcur``, ``fund``, ...) operate
on names; this registry maps user-visible names to live kernel objects
(tickets, currencies, tasks/threads) for one simulated machine.  Access
control mirrors the paper's note that a complete system "should protect
currencies by using access control lists or Unix-style permissions":
each currency records an owner and a set of principals allowed to
inflate it.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set

from repro.core.tickets import Currency, Ledger, Ticket, TicketHolder
from repro.errors import CurrencyError, ReproError, TicketError

__all__ = ["CommandState", "PermissionError_", "ROOT_USER"]

ROOT_USER = "root"


class PermissionError_(ReproError):
    """A principal attempted an operation it lacks rights for."""


class CommandState:
    """Mutable world-state the CLI commands read and write."""

    def __init__(self, ledger: Optional[Ledger] = None,
                 user: str = ROOT_USER) -> None:
        self.ledger = ledger if ledger is not None else Ledger()
        #: The principal issuing commands (setuid semantics: root may
        #: do anything, like the paper's setuid-root commands).
        self.user = user
        self.tickets: Dict[str, Ticket] = {}
        self.holders: Dict[str, TicketHolder] = {}
        #: currency name -> owning principal.
        self.currency_owner: Dict[str, str] = {Ledger.BASE_NAME: ROOT_USER}
        #: currency name -> principals permitted to inflate (issue into).
        self.inflators: Dict[str, Set[str]] = {Ledger.BASE_NAME: {ROOT_USER}}
        self._ticket_seq = 0

    # -- principals -------------------------------------------------------------

    def check_may_inflate(self, currency: Currency) -> None:
        """Raise unless the current user may issue tickets in ``currency``."""
        if self.user == ROOT_USER:
            return
        allowed = self.inflators.get(currency.name, set())
        if self.user not in allowed:
            raise PermissionError_(
                f"user {self.user!r} may not issue tickets in "
                f"currency {currency.name!r}"
            )

    def grant_inflation(self, currency: Currency, user: str) -> None:
        """Add a principal to the currency's inflation ACL."""
        self.inflators.setdefault(currency.name, set()).add(user)

    # -- name management ----------------------------------------------------------

    def new_ticket_name(self) -> str:
        self._ticket_seq += 1
        return f"t{self._ticket_seq}"

    def register_holder(self, name: str, holder: TicketHolder) -> None:
        """Expose a client (e.g. a thread) to the command namespace."""
        if name in self.holders:
            raise ReproError(f"holder name {name!r} already registered")
        self.holders[name] = holder

    def resolve_currency(self, name: str) -> Currency:
        """Currency by name (error messages match the CLI's vocabulary)."""
        return self.ledger.currency(name)

    def resolve_ticket(self, name: str) -> Ticket:
        try:
            return self.tickets[name]
        except KeyError:
            raise TicketError(f"no such ticket: {name!r}") from None

    def resolve_funding_target(self, name: str):
        """A currency or registered holder, by name."""
        if name in self.holders:
            return self.holders[name]
        try:
            return self.ledger.currency(name)
        except CurrencyError:
            raise ReproError(
                f"no currency or client named {name!r}"
            ) from None

    def ticket_names(self) -> List[str]:
        """Registered ticket names in creation order."""
        return list(self.tickets)
