"""Tickets and currencies: the paper's resource-right object model.

Section 3 of the paper represents resource rights as **lottery tickets**
that are *abstract*, *relative*, and *uniform*, and introduces
**currencies** so that mutually trusting modules can denominate tickets
in local units while the effects of local inflation stay contained.
Section 4.3/4.4 describes the Mach kernel objects this module mirrors
(paper Figure 2):

* a **ticket** has an ``amount`` denominated in some ``currency`` and
  funds exactly one target -- either another currency (it sits on that
  currency's *backing* list) or a client such as a thread;
* a **currency** has a unique name, a list of *backing* tickets (its
  funding), a list of *issued* tickets (denominated in it), and an
  *active amount*: the sum of amounts of its issued tickets that are
  currently competing in lotteries.

A ticket's value in **base units** is the value of its denominating
currency multiplied by its share of that currency's active amount; a
currency's value is the sum of its backing tickets' values; a base-
currency ticket is worth its face amount (section 4.4, Figure 3).

Activation follows the paper exactly: tickets held by a thread activate
when the thread joins the run queue and deactivate when it leaves; when
a currency's active amount transitions zero <-> non-zero, the
(de)activation propagates to each of its backing tickets (section 4.4,
footnote 3's behaviour for blocked threads is implemented by the kernel
via ticket transfers).  One body, :meth:`Ticket._move`, applies every
change to an active amount -- a (de)activation, or ``set_amount`` on an
active ticket -- and invalidates what the change moves.

The :class:`Ledger` facade owns the base currency, enforces acyclicity
of the funding graph, assigns unique names, and provides the
create/destroy/fund/unfund/value operations of the minimal kernel
interface (section 4.3), plus cached valuation ("currency conversions
can be accelerated by caching values or exchange rates").

Valuation is cached on two sides: the *active* side (a currency's
:meth:`Currency.base_value`, a holder's :meth:`TicketHolder.funding`)
and the *nominal*, as-if-everything-competed side
(:meth:`Currency.nominal_base_value`,
:meth:`TicketHolder.nominal_funding`), which telemetry, mutex release
lotteries and transfer sizing read for blocked threads.  Every cache is
a value or ``None`` (stale), a cached value is exact -- bit-identical to
a recomputation -- and one rule keeps it so:

* recomputing a value caches every currency it reads through (a
  holder's funding reads each active ticket's denomination, whose value
  reads the denominations of its active backing tickets, up to the
  base);
* a mutation that moves what a currency's issued tickets are worth
  walks downstream from it, clearing the cache of every currency it
  visits, the one it starts at included, and of every holder it
  reaches (a holder's ``funding_watcher`` fires on that edge).

Nothing downstream is therefore cached through an uncached currency,
so a cached value is its own walk gate: a mutation at an uncached
currency walks nowhere, and a walk descends only into cached
currencies.  The base currency never caches a value (a base ticket is
worth its face amount whatever the base active amount), so activating
N base-funded threads starts no walk at all.  Activation moves only the
active side; structural mutations (ticket create/destroy/``set_amount``,
``fund``/``unfund``) move the nominal side too.
"""

from __future__ import annotations

from operator import attrgetter, methodcaller
from typing import Callable, Dict, Iterator, List, Optional, Union

from repro.errors import (
    CurrencyCycleError,
    CurrencyError,
    TicketError,
)

__all__ = ["Ticket", "Currency", "TicketHolder", "Ledger", "FundingTarget"]

_INF = float("inf")

#: Allocates a :class:`Ticket` with no slot set (``object.__new__``: C,
#: no frame); :meth:`Ledger.create_ticket` stores every slot.
_new_ticket = object.__new__

# The valuation sums below feed ``sum()`` from C: no generator frame per
# sum, and none per ``amount`` read.  The sum itself is unchanged (same
# terms, same order, same start), so every float is too.
_amount_of = attrgetter("_amount")
_nominal_value_of = methodcaller("nominal_value")
_base_value_of = methodcaller("base_value")


def _bad_amount(amount: object) -> TicketError:
    """The refusal for an amount outside ``0 <= amount < inf``.  NaN
    compares false with everything, so a bare ``amount < 0`` would let
    it through into every lottery total."""
    return TicketError(
        f"ticket amount must be finite and non-negative, got {amount!r}")


class TicketHolder:
    """A client that competes in lotteries by holding tickets.

    Kernel threads, mutexes-in-waiting, and experiment clients all
    derive from (or embed) this class.  A holder's *funding* is the sum
    of the base values of its currently active tickets.  The ``name`` is
    only for diagnostics.
    """

    __slots__ = ("name", "tickets", "_competing", "funding_currency",
                 "_funding", "funding_watcher", "_nominal_value")

    def __init__(self, name: str = "holder") -> None:
        self.name = name
        self.tickets: List[Ticket] = []
        #: True while this holder competes in lotteries; mirrors
        #: run-queue membership for kernel threads.
        self._competing = False
        #: Denomination of this holder's own tickets, consulted by
        #: :mod:`repro.core.transfers` when sizing a transfer out of a
        #: blocked holder; kernel threads set it to the task currency.
        self.funding_currency: Optional["Currency"] = None
        #: Cached :meth:`funding`; None while stale (module docstring).
        self._funding: Optional[float] = None
        #: Optional (single) observer called with this holder when its
        #: cached funding is invalidated; the tree scheduler sets it
        #: while the holder is queued, to keep a dirty set instead of
        #: revaluing every member per draw.
        self.funding_watcher: Optional[Callable[["TicketHolder"], None]] = None
        #: Cached :meth:`nominal_funding`; None while stale (structural
        #: mutations upstream clear it, activation never does).
        self._nominal_value: Optional[float] = None

    # -- funding-cache invalidation ----------------------------------------

    def _invalidate_funding(self) -> None:
        """Drop the cached funding and notify the watcher.

        Idempotent until the next :meth:`funding` call recomputes; the
        watcher therefore fires once per stale period, which is exactly
        the granularity a scheduler's dirty set needs.  Hot callers
        test ``_funding`` first and call only on a cached holder.
        """
        if self._funding is not None:
            self._funding = None
            if self.funding_watcher is not None:
                self.funding_watcher(self)

    # -- activation --------------------------------------------------------

    @property
    def competing(self) -> bool:
        """Whether this holder's tickets are active."""
        return self._competing

    def start_competing(self) -> None:
        """Activate all held tickets (thread joined the run queue)."""
        if self._competing:
            return
        self._competing = True
        for ticket in self.tickets:
            if not ticket._active:
                ticket._move(True, ticket._amount)

    def stop_competing(self) -> None:
        """Deactivate all held tickets (thread left the run queue)."""
        if not self._competing:
            return
        self._competing = False
        for ticket in self.tickets:
            if ticket._active:
                ticket._move(False, -ticket._amount)

    # -- valuation ----------------------------------------------------------

    def funding(self) -> float:
        """Total base-unit value of this holder's active tickets.

        Served from the holder's cache while it holds a value; the
        recomputation below is the defining sum, and invalidation is
        exact, so the cached and recomputed values are bit-identical
        (checked after every generated mutation against
        :func:`repro.oracle_ref.fresh_valuation` in
        ``tests/test_properties_graph.py``, and end to end by the pinned
        replay checksums of the perf equivalence suite).
        """
        if self._funding is None:
            # Starts from int 0 exactly like the historical
            # sum()-over-generator so an unfunded holder still reports
            # int 0 in snapshot state trees (canonical JSON
            # distinguishes 0 from 0.0).
            total = 0
            for ticket in self.tickets:
                if ticket._active:
                    if ticket.currency.is_base:
                        # Ticket.base_value of an active base ticket.
                        total = total + ticket._amount
                    else:
                        total = total + ticket.base_value()
            self._funding = total
        return self._funding

    def nominal_funding(self) -> float:
        """Base-unit value as if the whole funding graph were active.

        Used for reporting, for sizing ticket transfers out of blocked
        threads, and for the release lottery of lottery-scheduled
        mutexes; the CPU lottery itself only sees active tickets.
        Cached like :meth:`funding`, but only structural mutations
        invalidate it.
        """
        if self._nominal_value is None:
            self._nominal_value = sum(map(_nominal_value_of, self.tickets))
        return self._nominal_value

    def snapshot_state(self) -> dict:
        """Typed state tree for checkpointing (see ``repro.checkpoint``)."""
        return {
            "name": self.name,
            "competing": self._competing,
            "tickets": [_describe_ticket(t) for t in self.tickets],
            "funding": self.funding(),
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} {self.name!r} tickets={len(self.tickets)}>"


FundingTarget = Union["Currency", TicketHolder]


def _describe_ticket(ticket: "Ticket") -> dict:
    """Serializable description of one ticket (checkpoint state trees).

    Tickets have no stable identity of their own; they are described by
    (currency, amount, target, active, tag), which is unambiguous in the
    deterministic creation order the lists preserve.
    """
    target = ticket.target
    if target is None:
        target_desc: Optional[str] = None
    elif isinstance(target, Currency):
        target_desc = f"currency:{target.name}"
    else:
        target_desc = f"holder:{target.name}"
    return {
        "currency": ticket.currency.name,
        "amount": ticket.amount,
        "target": target_desc,
        "active": ticket.active,
        "tag": ticket.tag,
    }


class Ticket:
    """A lottery ticket: an ``amount`` denominated in a ``currency``.

    Tickets are first-class objects (they can be transferred between
    holders, section 3.1) and fund exactly one target at a time.  A
    single Ticket may represent any number of logical tickets (paper
    footnote 1): ``amount`` is that multiplicity.

    There is no ``__init__``: :meth:`Ledger.create_ticket` is the mint
    (``mktkt``), allocating with ``object.__new__`` and storing every
    slot, so minting a ticket opens no frame beyond its own.
    """

    __slots__ = ("currency", "_amount", "target", "_active", "tag",
                 "_destroyed")

    # -- amount -------------------------------------------------------------

    @property
    def amount(self) -> float:
        """Face amount in the denominating currency's units."""
        return self._amount

    def set_amount(self, amount: float) -> None:
        """Change the face amount (ticket inflation/deflation, section 3.2).

        If the ticket is active the currency's active amount is adjusted
        so the next lottery immediately reflects the new allocation.
        """
        if self._destroyed:
            raise TicketError("cannot set_amount on a destroyed ticket")
        if not 0 <= amount < _INF:
            raise _bad_amount(amount)
        # Amounts are real-valued by design (fractional transfers and
        # inflation); the sanitizer checks conservation with tolerances.
        amount = float(amount)  # repro: noqa[RPR004] -- real-valued by design
        delta = amount - self._amount
        self._amount = amount
        # On each side every sibling's share moved (the currency's walk)
        # and our own value too, which that walk misses where the
        # currency caches nothing -- always under the base currency.
        if self._active:
            self._move(True, delta)
        currency = self.currency
        currency._issued_total = None
        if currency._nominal_value is not None:
            currency._invalidate_downstream(True)
        target = self.target
        if isinstance(target, Currency):
            if target._nominal_value is not None:
                target._invalidate_downstream(True)
        elif target is not None:
            target._nominal_value = None
        currency._ledger._epoch += 1

    # -- funding edges -------------------------------------------------------

    def fund(self, target: FundingTarget) -> None:
        """Direct this ticket's value at a currency or a client."""
        if self._destroyed:
            raise TicketError("cannot fund a destroyed ticket")
        if self.target is not None:
            raise TicketError(f"ticket already funds {self.target!r}; unfund first")
        ledger = self.currency._ledger
        if isinstance(target, Currency):
            if target._ledger is not ledger:
                raise TicketError(
                    f"cannot fund currency {target.name!r} of a different "
                    "ledger")
            ledger._check_acyclic(self.currency, target)
            target._backing.append(self)
            self.target = target
            # Both sums gained a term: an inactive one adds nothing to
            # the active value, but a first one turns an empty sum's
            # int 0 into 0.0, which state trees tell apart.
            if target._nominal_value is not None:
                target._invalidate_downstream(True)
            if target._value is not None:
                target._invalidate_downstream()
            # A backing ticket is active iff the funded currency has
            # active consumers (paper section 4.4).
            if target._active_amount > 0 and not self._active:
                self._move(True, self._amount)
        else:
            self.target = target
            target.tickets.append(self)
            target._nominal_value = None
            if target._funding is not None:
                target._invalidate_funding()
            if target._competing and not self._active:
                self._move(True, self._amount)
        ledger._epoch += 1

    def unfund(self) -> None:
        """Withdraw this ticket from whatever it currently funds."""
        target = self.target
        if target is None:
            return
        if isinstance(target, Currency):
            target._backing.remove(self)
            if self._active:
                self._move(False, -self._amount)
            # As in fund: the last term gone turns 0.0 back into int 0.
            if target._nominal_value is not None:
                target._invalidate_downstream(True)
            if target._value is not None:
                target._invalidate_downstream()
            self.target = None
        else:
            self.target = None
            target.tickets.remove(self)
            target._nominal_value = None
            if target._funding is not None:
                target._invalidate_funding()
            if self._active:
                self._move(False, -self._amount)
        self.currency._ledger._epoch += 1

    # -- activation ----------------------------------------------------------

    @property
    def active(self) -> bool:
        """True while this ticket competes (directly or via its currency)."""
        return self._active

    def activate(self) -> None:
        """Mark this ticket active and propagate into its denomination."""
        if self._destroyed:
            raise TicketError("cannot activate a destroyed ticket")
        if not self._active:
            self._move(True, self._amount)

    def deactivate(self) -> None:
        """Mark this ticket inactive and propagate into its denomination."""
        if self._destroyed:
            raise TicketError("cannot deactivate a destroyed ticket")
        if self._active:
            self._move(False, -self._amount)

    def _move(self, active: bool, delta: float) -> None:
        """Set this ticket's flag to ``active`` and add ``delta`` to its
        denomination's active amount (paper section 4.4).

        The ledger calls this directly, so a (de)activation opens one
        frame.  An active amount is ``0`` or at least ``1e-9`` after
        every move, and a zero <-> non-zero edge (de)activates each
        backing ticket with it.  Then the currency's per-unit value moved
        (its walk, gated on its cache) and so did this ticket's own
        value, which that walk misses where the currency caches nothing
        -- always under the base currency.
        """
        self._active = active
        currency = self.currency
        was_active = currency._active_amount > 0
        amount = currency._active_amount + delta
        if amount < 1e-9:
            amount = 0.0
        currency._active_amount = amount
        if (amount > 0) is not was_active:
            for ticket in currency._backing:
                if ticket._active is was_active:
                    ticket._move(not was_active, -ticket._amount if was_active
                                 else ticket._amount)
        if currency._value is not None:
            currency._invalidate_downstream()
        currency._ledger._epoch += 1
        target = self.target
        if isinstance(target, Currency):
            if target._value is not None:
                target._invalidate_downstream()
        elif target is not None and target._funding is not None:
            target._invalidate_funding()

    # -- valuation -----------------------------------------------------------

    def base_value(self) -> float:
        """This ticket's value in base units (paper section 4.4).

        An inactive ticket is worth nothing to a lottery.  The value is
        the denominating currency's base value times this ticket's share
        of the currency's active amount.
        """
        if not self._active:
            return 0.0
        currency = self.currency
        if currency.is_base:
            return self._amount
        # Read before the share test: whatever caches this value must
        # find the denomination cached too, even where a clamped active
        # amount makes the share 0 (module docstring).
        value = currency.base_value()
        denominator = currency._active_amount
        if denominator <= 0:
            return 0.0
        return value * (self._amount / denominator)

    def nominal_value(self) -> float:
        """Value in base units as if the entire funding graph were active.

        Answers "what would this ticket be worth if everything competed":
        the denominating currency's *nominal* value times this ticket's
        share of the currency's total issue.  Unlike :meth:`base_value`,
        this is well-defined for a blocked (deactivated) holder, which is
        what mutex release lotteries and transfer sizing need.
        """
        currency = self.currency
        if currency.is_base:
            return self._amount
        value = currency.nominal_base_value()  # read first, as base_value
        issued = currency.issued_amount()
        if issued <= 0:
            return 0.0
        return value * (self._amount / issued)

    def destroy(self) -> None:
        """Remove this ticket from the system entirely (terminal; a
        second destroy changes nothing)."""
        if self._destroyed:
            return
        self.unfund()
        if self._active:
            # Activated by hand while funding nothing: unfund had no
            # edge to deactivate through.
            self._move(False, -self._amount)
        currency = self.currency
        currency._issued.remove(self)
        currency._issued_total = None
        if currency._nominal_value is not None:
            currency._invalidate_downstream(True)
        self._destroyed = True
        currency._ledger._epoch += 1

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "active" if self._active else "inactive"
        return (
            f"<Ticket {self._amount:g}.{self.currency.name}"
            f" -> {getattr(self.target, 'name', None)!r} {state}>"
        )


class Currency:
    """A named denomination for tickets (paper sections 3.3 and 4.4)."""

    __slots__ = ("name", "is_base", "_ledger", "_backing", "_issued",
                 "_active_amount", "_value", "_issued_total",
                 "_nominal_value")

    def __init__(self, name: str, ledger: "Ledger", is_base: bool = False) -> None:
        self.name = name
        self.is_base = is_base
        self._ledger = ledger
        #: Tickets funding this currency (its income).
        self._backing: List[Ticket] = []
        #: Tickets denominated in this currency (its issue).
        self._issued: List[Ticket] = []
        #: Sum of amounts of currently active issued tickets.
        self._active_amount = 0.0
        # Valuation caches, None while stale; the base currency never
        # fills either value (module docstring).
        self._value: Optional[float] = None
        self._issued_total: Optional[float] = None
        self._nominal_value: Optional[float] = None

    # -- structure -----------------------------------------------------------

    @property
    def backing(self) -> List[Ticket]:
        """Tickets that back (fund) this currency."""
        return list(self._backing)

    @property
    def issued(self) -> List[Ticket]:
        """Tickets denominated in this currency."""
        return list(self._issued)

    @property
    def active_amount(self) -> float:
        """Sum of amounts of this currency's active issued tickets."""
        return self._active_amount

    def backing_currencies(self) -> Iterator["Currency"]:
        """Denominations of this currency's backing tickets."""
        for ticket in self._backing:
            yield ticket.currency

    def _invalidate_downstream(self, nominal: bool = False) -> None:
        """Invalidate every holder funded (transitively) by this currency.

        Clears this currency's value on the chosen side (``nominal``:
        the as-if-active one), then walks issued tickets to their
        targets: a holder's cache on that side is cleared, and a
        currency target is cleared and descended into only while it
        caches a value -- nothing below an uncached currency is cached
        through it (module docstring).  Clearing before descending also
        keeps diamond-shaped funding from re-walking a currency.
        """
        if nominal:
            self._nominal_value = None
        else:
            self._value = None
        stack: List[Currency] = [self]
        while stack:
            currency = stack.pop()
            for ticket in currency._issued:
                target = ticket.target
                if target is None:
                    continue
                if isinstance(target, Currency):
                    if nominal:
                        if target._nominal_value is not None:
                            target._nominal_value = None
                            stack.append(target)
                    elif target._value is not None:
                        target._value = None
                        stack.append(target)
                elif nominal:
                    target._nominal_value = None
                elif target._funding is not None:
                    target._invalidate_funding()

    # -- valuation -----------------------------------------------------------

    def base_value(self) -> float:
        """This currency's value in base units.

        The base currency is worth its active amount (each base ticket is
        worth its face value); every other currency is worth the sum of
        its backing tickets' base values, cached until a walk clears it
        (module docstring).
        """
        if self.is_base:
            return self._active_amount
        if self._value is None:
            self._value = sum(map(_base_value_of, self._backing))
        return self._value

    def exchange_rate(self, other: "Currency") -> float:
        """Base value of one unit of ``self`` per one unit of ``other``.

        Both currencies must have active issue; a currency with zero
        active amount has no per-unit value.
        """
        mine = self.per_unit_value()
        theirs = other.per_unit_value()
        if theirs == 0:
            raise CurrencyError(
                f"currency {other.name!r} has no per-unit value (inactive)"
            )
        return mine / theirs

    def per_unit_value(self) -> float:
        """Base units per one unit of this currency (0 if inactive)."""
        if self.is_base:
            return 1.0
        if self._active_amount <= 0:
            return 0.0
        return self.base_value() / self._active_amount

    def issued_amount(self) -> float:
        """Sum of the amounts of all issued tickets, active or not."""
        total = self._issued_total
        if total is None:
            total = sum(map(_amount_of, self._issued))
            self._issued_total = total
        return total

    def nominal_base_value(self) -> float:
        """Value in base units as if the whole funding graph were active.

        The base currency's nominal per-unit value is 1, so this is only
        meaningful for derived currencies: the sum of the backing
        tickets' nominal values.
        """
        if self.is_base:
            return self.issued_amount()
        if self._nominal_value is None:
            self._nominal_value = sum(map(_nominal_value_of, self._backing))
        return self._nominal_value

    def destroy(self) -> None:
        """Remove an empty currency from the ledger."""
        if self._issued:
            raise CurrencyError(
                f"cannot destroy currency {self.name!r}: {len(self._issued)} "
                "tickets still denominated in it"
            )
        for ticket in list(self._backing):
            ticket.unfund()
        self._ledger._remove_currency(self)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<Currency {self.name!r} active={self._active_amount:g}"
            f" backing={len(self._backing)} issued={len(self._issued)}>"
        )


class Ledger:
    """Registry and factory for all tickets and currencies in a system.

    One Ledger per simulated machine.  It owns the unique **base**
    currency, guards the funding graph against cycles, and exports the
    paper's minimal kernel interface (section 4.3):

    * create and destroy tickets and currencies,
    * fund and unfund a currency or client,
    * compute current values of tickets and currencies in base units.
    """

    BASE_NAME = "base"

    def __init__(self) -> None:
        self._currencies: Dict[str, Currency] = {}
        #: Bumped by every mutation (state trees and checkpoints carry it).
        self._epoch = 0
        self.base = Currency(self.BASE_NAME, self, is_base=True)
        self._currencies[self.BASE_NAME] = self.base

    # -- currency management ----------------------------------------------------

    def create_currency(self, name: str) -> Currency:
        """Create a named currency (``mkcur``)."""
        if name in self._currencies:
            raise CurrencyError(f"currency {name!r} already exists")
        currency = Currency(name, self)
        self._currencies[name] = currency
        self._epoch += 1
        return currency

    def currency(self, name: str) -> Currency:
        """Look up a currency by name."""
        try:
            return self._currencies[name]
        except KeyError:
            raise CurrencyError(f"no such currency: {name!r}") from None

    def currencies(self) -> List[Currency]:
        """All currencies, base first, then by creation order."""
        return list(self._currencies.values())

    def _remove_currency(self, currency: Currency) -> None:
        if currency.is_base:
            raise CurrencyError("the base currency cannot be destroyed")
        self._currencies.pop(currency.name, None)
        self._epoch += 1

    # -- ticket management --------------------------------------------------------

    def create_ticket(
        self,
        amount: float,
        currency: Optional[Union[Currency, str]] = None,
        fund: Optional[FundingTarget] = None,
        tag: str = "",
    ) -> Ticket:
        """Create a ticket (``mktkt``), optionally funding a target."""
        if currency is None:
            currency_obj = self.base
        elif isinstance(currency, str):
            currency_obj = self.currency(currency)
        else:
            currency_obj = currency
        if currency_obj._ledger is not self:
            raise TicketError("currency belongs to a different ledger")
        if not 0 <= amount < _INF:
            raise _bad_amount(amount)
        ticket = _new_ticket(Ticket)
        ticket.currency = currency_obj
        # Amounts are real-valued by design (fractional transfers and
        # inflation); the sanitizer checks conservation with tolerances.
        ticket._amount = float(amount)  # repro: noqa[RPR004] -- real-valued by design
        ticket.target = None
        ticket._active = False
        # Free-form label ("transfer", "compensation", ...) for tracing.
        ticket.tag = tag
        ticket._destroyed = False
        currency_obj._issued.append(ticket)
        # The issue changed: every sibling's share of it moved, so
        # everything funded downstream is nominally stale.
        currency_obj._issued_total = None
        if currency_obj._nominal_value is not None:
            currency_obj._invalidate_downstream(True)
        self._epoch += 1
        if fund is not None:
            ticket.fund(fund)
        return ticket

    # -- graph validation -----------------------------------------------------------

    def _check_acyclic(self, denomination: Currency, funded: Currency) -> None:
        """Reject a funding edge that would create a valuation cycle.

        ``funded``'s value will depend on ``denomination``'s value; a
        cycle exists if ``denomination`` (transitively, through its own
        backing) already depends on ``funded``.
        """
        if denomination is funded:
            raise CurrencyCycleError(
                f"currency {funded.name!r} cannot be backed by its own tickets"
            )
        seen = set()
        stack = [denomination]
        while stack:
            current = stack.pop()
            if current is funded:
                raise CurrencyCycleError(
                    f"funding {funded.name!r} with {denomination.name!r} tickets "
                    "would create a cycle in the currency graph"
                )
            if id(current) in seen:
                continue
            seen.add(id(current))
            stack.extend(current.backing_currencies())

    # -- valuation helpers -------------------------------------------------------------

    def total_active_base(self) -> float:
        """Total active tickets in the base currency (the lottery's T)."""
        return self.base.active_amount

    def snapshot_state(self) -> dict:
        """Typed state tree for checkpointing (see ``repro.checkpoint``).

        Captures the full funding graph: every currency with its backing
        and issued ticket descriptions, active amounts, and the ledger
        epoch.  Unlike :meth:`snapshot` (a float-only diagnostics view
        for the CLI), this tree is meant for bit-exact comparison of two
        runs of the same recipe.
        """
        currencies = []
        for currency in self.currencies():
            currencies.append({
                "name": currency.name,
                "is_base": currency.is_base,
                "active_amount": currency.active_amount,
                "base_value": currency.base_value(),
                "backing": [_describe_ticket(t) for t in currency._backing],
                "issued": [_describe_ticket(t) for t in currency._issued],
            })
        return {
            "epoch": self._epoch,
            "total_active_base": self.total_active_base(),
            "currencies": currencies,
        }

    def snapshot(self) -> Dict[str, Dict[str, float]]:
        """Per-currency view for diagnostics and the CLI ``lscur``."""
        report: Dict[str, Dict[str, float]] = {}
        for currency in self.currencies():
            report[currency.name] = {
                "active_amount": currency.active_amount,
                "base_value": currency.base_value(),
                "backing_tickets": float(len(currency._backing)),
                "issued_tickets": float(len(currency._issued)),
            }
        return report

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Ledger currencies={len(self._currencies)} epoch={self._epoch}>"
