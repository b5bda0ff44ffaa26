"""The paper's user-level commands (section 4.7).

"User-level commands exist to create and destroy tickets and currencies
(mktkt, rmtkt, mkcur, rmcur), fund and unfund currencies (fund,
unfund), obtain information (lstkt, lscur), and to execute a shell
command with specified funding (fundx)."

Each command is a plain function taking a :class:`CommandState` and
string arguments, returning its output as a string -- so the same
implementations serve the interactive shell, scripts, and tests.

Beyond the paper's nine, ``sanitize`` audits the session's own ledger
against the ticket/currency invariants (:mod:`repro.analysis`) -- the
session ledger has no other door.  Everything else has a ``python -m``
front door of its own (``repro.analysis``, ``repro.checkpoint``,
``repro.telemetry``, ``repro.experiments.<figure>``).
"""

from __future__ import annotations

from typing import Callable, Dict, Sequence

from repro.errors import ReproError, TicketError
from repro.cli.state import CommandState, ROOT_USER

__all__ = [
    "mktkt",
    "rmtkt",
    "mkcur",
    "rmcur",
    "fund",
    "unfund",
    "lstkt",
    "lscur",
    "fundx",
    "sanitize",
    "COMMANDS",
]


def _require_args(args: Sequence[str], count: int, usage: str) -> None:
    if len(args) != count:
        raise ReproError(f"usage: {usage}")


def mktkt(state: CommandState, args: Sequence[str]) -> str:
    """mktkt <amount> <currency> [name] -- create a ticket."""
    if len(args) not in (2, 3):
        raise ReproError("usage: mktkt <amount> <currency> [name]")
    amount = float(args[0])
    currency = state.resolve_currency(args[1])
    state.check_may_inflate(currency)
    name = args[2] if len(args) == 3 else state.new_ticket_name()
    if name in state.tickets:
        raise TicketError(f"ticket name {name!r} already in use")
    ticket = state.ledger.create_ticket(amount, currency=currency, tag=name)
    state.tickets[name] = ticket
    return f"ticket {name}: {amount:g}.{currency.name}"


def rmtkt(state: CommandState, args: Sequence[str]) -> str:
    """rmtkt <ticket> -- destroy a ticket."""
    _require_args(args, 1, "rmtkt <ticket>")
    ticket = state.resolve_ticket(args[0])
    state.check_may_inflate(ticket.currency)
    ticket.destroy()
    del state.tickets[args[0]]
    return f"removed ticket {args[0]}"


def mkcur(state: CommandState, args: Sequence[str]) -> str:
    """mkcur <name> -- create a currency owned by the current user."""
    _require_args(args, 1, "mkcur <name>")
    currency = state.ledger.create_currency(args[0])
    state.currency_owner[currency.name] = state.user
    state.inflators.setdefault(currency.name, set()).add(state.user)
    return f"currency {currency.name} (owner {state.user})"


def rmcur(state: CommandState, args: Sequence[str]) -> str:
    """rmcur <name> -- destroy an empty currency."""
    _require_args(args, 1, "rmcur <name>")
    currency = state.resolve_currency(args[0])
    owner = state.currency_owner.get(currency.name, ROOT_USER)
    if state.user not in (ROOT_USER, owner):
        raise ReproError(f"user {state.user!r} does not own {currency.name!r}")
    currency.destroy()
    state.currency_owner.pop(currency.name, None)
    state.inflators.pop(currency.name, None)
    return f"removed currency {args[0]}"


def fund(state: CommandState, args: Sequence[str]) -> str:
    """fund <ticket> <currency-or-client> -- direct a ticket's value."""
    _require_args(args, 2, "fund <ticket> <currency-or-client>")
    ticket = state.resolve_ticket(args[0])
    target = state.resolve_funding_target(args[1])
    ticket.fund(target)
    target_name = getattr(target, "name", args[1])
    return f"ticket {args[0]} funds {target_name}"


def unfund(state: CommandState, args: Sequence[str]) -> str:
    """unfund <ticket> -- withdraw a ticket from its target."""
    _require_args(args, 1, "unfund <ticket>")
    ticket = state.resolve_ticket(args[0])
    ticket.unfund()
    return f"ticket {args[0]} unfunded"


def lstkt(state: CommandState, args: Sequence[str]) -> str:
    """lstkt -- list tickets: name, amount.currency, target, value."""
    if args:
        raise ReproError("usage: lstkt")
    rows = ["NAME      AMOUNT                 FUNDS           VALUE"]
    for name, ticket in state.tickets.items():
        target = getattr(ticket.target, "name", "-") if ticket.target else "-"
        denomination = f"{ticket.amount:g}.{ticket.currency.name}"
        rows.append(
            f"{name:<9} {denomination:<22} {target:<15}"
            f" {ticket.base_value():>8.1f}"
        )
    return "\n".join(rows)


def lscur(state: CommandState, args: Sequence[str]) -> str:
    """lscur -- list currencies: name, active amount, base value."""
    if args:
        raise ReproError("usage: lscur")
    rows = ["NAME            ACTIVE     VALUE  BACKING  ISSUED"]
    for currency in state.ledger.currencies():
        rows.append(
            f"{currency.name:<14} {currency.active_amount:>7g}"
            f" {currency.base_value():>9.1f}"
            f" {len(currency.backing):>8d} {len(currency.issued):>7d}"
        )
    return "\n".join(rows)


def fundx(state: CommandState, args: Sequence[str]) -> str:
    """fundx <amount> <currency> <client> -- run a client with funding.

    The paper's fundx executes a shell command with specified funding;
    here the "command" is a registered client (thread/holder), which
    receives a freshly minted ticket for the duration of its life.
    """
    _require_args(args, 3, "fundx <amount> <currency> <client>")
    amount = float(args[0])
    currency = state.resolve_currency(args[1])
    state.check_may_inflate(currency)
    holder = state.holders.get(args[2])
    if holder is None:
        raise ReproError(f"no client named {args[2]!r}")
    name = state.new_ticket_name()
    ticket = state.ledger.create_ticket(
        amount, currency=currency, fund=holder, tag=name
    )
    state.tickets[name] = ticket
    return f"client {args[2]} funded with {amount:g}.{currency.name} ({name})"


def sanitize(state: CommandState, args: Sequence[str]) -> str:
    """sanitize -- audit the ledger's ticket/currency invariants now."""
    if args:
        raise ReproError("usage: sanitize")
    from repro.analysis.sanitizer import sanitize_ledger

    violations = sanitize_ledger(state.ledger)
    currencies = len(state.ledger.currencies())
    tickets = sum(len(c.issued) for c in state.ledger.currencies())
    if not violations:
        return (f"sanitize: ledger invariants OK "
                f"({currencies} currencies, {tickets} tickets)")
    lines = list(violations)
    lines.append(f"sanitize: {len(violations)} violation(s)")
    return "\n".join(lines)


COMMANDS: Dict[str, Callable[[CommandState, Sequence[str]], str]] = {
    "mktkt": mktkt,
    "rmtkt": rmtkt,
    "mkcur": mkcur,
    "rmcur": rmcur,
    "fund": fund,
    "unfund": unfund,
    "lstkt": lstkt,
    "lscur": lscur,
    "fundx": fundx,
    "sanitize": sanitize,
}
