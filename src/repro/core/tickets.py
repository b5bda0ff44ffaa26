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
via ticket transfers).

The :class:`Ledger` facade owns the base currency, enforces acyclicity
of the funding graph, assigns unique names, and provides the
create/destroy/fund/unfund/value operations of the minimal kernel
interface (section 4.3), plus cached valuation ("currency conversions
can be accelerated by caching values or exchange rates").

Valuation caching happens at three levels, all with **exact**
invalidation (a cached value is only ever served when a recomputation
would produce the bit-identical float):

* each currency caches its base value per ledger epoch (any mutation
  bumps the epoch);
* each holder caches its :meth:`TicketHolder.funding`, invalidated
  along the funding graph's actual dependency edges -- a mutation of a
  currency's value or active amount invalidates exactly the holders
  downstream of it, so a draw over N statically funded threads costs N
  cached reads instead of N graph walks, and the tree scheduler can
  skip untouched members entirely.  The downstream walk is itself paid
  only where it can find a clean holder -- the **read gate**.  A
  derived currency carries one mark, "some holder recomputed its
  funding through me since my last walk", kept by two rules:

  1. *mark on recompute*: :meth:`TicketHolder.funding`, when it
     recomputes, marks the denomination of each active non-base ticket
     it sums and every currency backing that denomination, transitively
     (the value just cached depends on all of them);
  2. *clear on visit*: an active-side walk clears the mark on the
     currency it starts at and on every currency it descends through
     (every holder below is dirty now, so nothing is cached through
     them until rule 1 marks them again).

  An activation, deactivation or active re-sizing at an unmarked
  currency therefore starts no walk at all: no clean holder -- and so
  no funding watcher waiting to fire -- exists downstream.  The base
  currency is never marked (its tickets are worth their face amount
  whatever its active amount).  Observers that call ``funding()``
  (probes, snapshots) mark what they read and so re-arm walks; they
  never change a value;
* the *nominal* (as-if-everything-competed) side -- a currency's
  :meth:`Currency.issued_amount` and :meth:`Currency.nominal_base_value`
  and a holder's :meth:`TicketHolder.nominal_funding` -- is cached the
  same way, but goes stale on **structural** mutations only (ticket
  create/destroy/``set_amount``, ``fund``/``unfund``, holder
  attach/detach): activation never moves a nominal value, so telemetry
  and transfer sizing read blocked threads' worth at cached-read cost.
  The same downstream walk serves both sides; the nominal side is
  never gated.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterator, List, Optional, Union

from repro.errors import (
    CurrencyCycleError,
    CurrencyError,
    TicketError,
)

__all__ = ["Ticket", "Currency", "TicketHolder", "Ledger", "FundingTarget"]


class TicketHolder:
    """A client that competes in lotteries by holding tickets.

    Kernel threads, mutexes-in-waiting, and experiment clients all
    derive from (or embed) this class.  A holder's *funding* is the sum
    of the base values of its currently active tickets.  The ``name`` is
    only for diagnostics.
    """

    __slots__ = ("name", "tickets", "_competing", "funding_currency",
                 "_funding_value", "_funding_dirty", "funding_watcher",
                 "_nominal_value")

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
        # Funding cache: recomputed lazily, invalidated exactly along
        # the funding graph's dependency edges (see module docstring).
        self._funding_value: float = 0
        self._funding_dirty = True
        #: Optional (single) observer called with this holder when its
        #: cached funding is invalidated; the tree scheduler sets it
        #: while the holder is queued, to keep a dirty set instead of
        #: revaluing every member per draw.
        self.funding_watcher: Optional[Callable[["TicketHolder"], None]] = None
        #: Cached :meth:`nominal_funding`; None while stale (structural
        #: mutations upstream clear it, activation never does).
        self._nominal_value: Optional[float] = None

    # -- ticket bookkeeping ------------------------------------------------

    def _attach(self, ticket: "Ticket") -> None:
        self.tickets.append(ticket)
        self._nominal_value = None
        self._invalidate_funding()
        if self._competing:
            ticket.activate()

    def _detach(self, ticket: "Ticket") -> None:
        self.tickets.remove(ticket)
        self._nominal_value = None
        self._invalidate_funding()
        if ticket.active:
            ticket.deactivate()

    # -- funding-cache invalidation ----------------------------------------

    def _invalidate_funding(self) -> None:
        """Mark the cached funding stale and notify the watcher.

        Idempotent until the next :meth:`funding` call recomputes; the
        watcher therefore fires once per dirty period, which is exactly
        the granularity a scheduler's dirty set needs.
        """
        if not self._funding_dirty:
            self._funding_dirty = True
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
            ticket.activate()

    def stop_competing(self) -> None:
        """Deactivate all held tickets (thread left the run queue)."""
        if not self._competing:
            return
        self._competing = False
        for ticket in self.tickets:
            if ticket._active:
                ticket.deactivate()

    # -- valuation ----------------------------------------------------------

    def funding(self) -> float:
        """Total base-unit value of this holder's active tickets.

        Served from the holder's cache when clean; the recomputation
        below is the defining sum, and invalidation is exact, so the
        cached and recomputed values are bit-identical by construction
        (checked after every generated mutation against a from-scratch
        walk in ``tests/test_properties_graph.py``, and end to end by
        the pinned replay checksums of the perf equivalence suite).
        """
        if self._funding_dirty:
            # Starts from int 0 exactly like the historical
            # sum()-over-generator so an unfunded holder still reports
            # int 0 in snapshot state trees (canonical JSON
            # distinguishes 0 from 0.0).
            total = 0
            for ticket in self.tickets:
                if ticket._active:
                    currency = ticket.currency
                    if currency.is_base:
                        # Ticket.base_value of an active base ticket.
                        total = total + ticket._amount
                        continue
                    # Rule 1 of the read gate (module docstring).
                    if not currency._read:
                        currency._mark_read()
                    total = total + ticket.base_value()
            self._funding_value = total
            self._funding_dirty = False
        return self._funding_value

    def nominal_funding(self) -> float:
        """Base-unit value as if the whole funding graph were active.

        Used for reporting, for sizing ticket transfers out of blocked
        threads, and for the release lottery of lottery-scheduled
        mutexes; the CPU lottery itself only sees active tickets.
        Cached like :meth:`funding`, but only structural mutations
        invalidate it.
        """
        value = self._nominal_value
        if value is None:
            value = sum(t.nominal_value() for t in self.tickets)
            self._nominal_value = value
        return value

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
    """

    __slots__ = ("currency", "_amount", "target", "_active", "tag",
                 "_destroyed")

    def __init__(self, currency: "Currency", amount: float, tag: str = "") -> None:
        if amount < 0:
            raise TicketError(f"ticket amount must be non-negative, got {amount}")
        self.currency = currency
        # Amounts are real-valued by design (fractional transfers and
        # inflation); the sanitizer checks conservation with tolerances.
        self._amount = float(amount)  # repro: noqa[RPR004] -- real-valued by design
        self.target: Optional[FundingTarget] = None
        self._active = False
        #: Free-form label ("transfer", "compensation", ...) for tracing.
        self.tag = tag
        self._destroyed = False
        currency._issued.append(self)
        currency._issue_changed()

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
        if amount < 0:
            raise TicketError(f"ticket amount must be non-negative, got {amount}")
        # See __init__: amounts are real-valued, conservation is
        # tolerance-checked by the sanitizer.
        amount = float(amount)  # repro: noqa[RPR004] -- real-valued by design
        if self._active:
            self.currency._adjust_active(amount - self._amount)
        self._amount = amount
        if self._active:
            # _adjust_active invalidates downstream of sibling tickets;
            # a base-denominated ticket (whose value IS its amount) is
            # exempt from that walk, so cover our own target here.
            self._invalidate_target()
        # Nominal side, same shape: siblings through the currency's
        # downstream walk, our own target for the base exemption.
        self.currency._issue_changed()
        self._invalidate_target(nominal=True)
        self.currency._ledger._epoch += 1

    # -- funding edges -------------------------------------------------------

    def fund(self, target: FundingTarget) -> None:
        """Direct this ticket's value at a currency or a client."""
        if self._destroyed:
            raise TicketError("cannot fund a destroyed ticket")
        if self.target is not None:
            raise TicketError(f"ticket already funds {self.target!r}; unfund first")
        if isinstance(target, Currency):
            self.currency._ledger._check_acyclic(self.currency, target)
            target._backing.append(self)
            self.target = target
            self._invalidate_target(nominal=True)
            # A backing ticket is active iff the funded currency has
            # active consumers (paper section 4.4).
            if target.active_amount > 0:
                self.activate()
        else:
            self.target = target
            target._attach(self)
        self.currency._ledger._epoch += 1

    def unfund(self) -> None:
        """Withdraw this ticket from whatever it currently funds."""
        if self.target is None:
            return
        if isinstance(self.target, Currency):
            self.target._backing.remove(self)
            if self._active:
                self.deactivate()
            self._invalidate_target(nominal=True)
            self.target = None
        else:
            holder = self.target
            self.target = None
            holder._detach(self)
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
            self._active = True
            self.currency._adjust_active(self._amount)
            # _invalidate_target(), fused: this and deactivate are the
            # two mutations every block and wake makes.
            target = self.target
            if target is not None:
                if isinstance(target, Currency):
                    if target._read:
                        target._invalidate_downstream()
                elif not target._funding_dirty:
                    target._invalidate_funding()

    def deactivate(self) -> None:
        """Mark this ticket inactive and propagate into its denomination."""
        if self._destroyed:
            raise TicketError("cannot deactivate a destroyed ticket")
        if self._active:
            self._active = False
            self.currency._adjust_active(-self._amount)
            target = self.target
            if target is not None:
                if isinstance(target, Currency):
                    if target._read:
                        target._invalidate_downstream()
                elif not target._funding_dirty:
                    target._invalidate_funding()

    def _invalidate_target(self, nominal: bool = False) -> None:
        """Invalidate whatever this ticket's value flows into.

        A holder target's cached funding goes stale directly; a currency
        target's value changed, which cascades to everything funded
        downstream of it -- on the active side only if a funding was
        read through it since its last walk (the read gate).
        ``nominal`` selects the side that moved: the as-if-active
        valuation (structural mutations) instead of the active one.
        """
        target = self.target
        if target is None:
            return
        if isinstance(target, Currency):
            if nominal:
                target._nominal_value = None
                target._invalidate_downstream(True)
            elif target._read:
                target._invalidate_downstream()
        elif nominal:
            target._nominal_value = None
        elif not target._funding_dirty:
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
        denominator = currency.active_amount
        if denominator <= 0:
            return 0.0
        return currency.base_value() * (self._amount / denominator)

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
        issued = currency.issued_amount()
        if issued <= 0:
            return 0.0
        return currency.nominal_base_value() * (self._amount / issued)

    def destroy(self) -> None:
        """Remove this ticket from the system entirely (terminal)."""
        self.unfund()
        if self._active:
            # Activated by hand while funding nothing: unfund had no
            # edge to deactivate through.
            self.deactivate()
        if not self._destroyed:
            self.currency._issued.remove(self)
            self.currency._issue_changed()
            self._destroyed = True
        self.currency._ledger._epoch += 1

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "active" if self._active else "inactive"
        return (
            f"<Ticket {self._amount:g}.{self.currency.name}"
            f" -> {getattr(self.target, 'name', None)!r} {state}>"
        )


class Currency:
    """A named denomination for tickets (paper sections 3.3 and 4.4)."""

    __slots__ = ("name", "is_base", "_ledger", "_backing", "_issued",
                 "_active_amount", "_cached_value", "_cached_epoch",
                 "_issued_total", "_nominal_value", "_read")

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
        # Valuation cache: (ledger epoch, value).
        self._cached_value: Optional[float] = None
        self._cached_epoch = -1
        # Nominal-side caches; None while stale.
        self._issued_total: Optional[float] = None
        self._nominal_value: Optional[float] = None
        #: The read gate: True while some holder may have recomputed
        #: :meth:`TicketHolder.funding` through this currency since its
        #: last active-side walk.  Never set on the base currency.
        self._read = False

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

    # -- activation propagation -----------------------------------------------

    def _adjust_active(self, delta: float) -> None:
        """Apply an active-amount change, propagating 0 <-> non-zero edges."""
        was_active = self._active_amount > 0
        self._active_amount += delta
        if self._active_amount < 1e-9:
            self._active_amount = 0.0
        now_active = self._active_amount > 0
        if now_active and not was_active:
            for ticket in self._backing:
                ticket.activate()
        elif was_active and not now_active:
            for ticket in self._backing:
                ticket.deactivate()
        if self._read:
            # A derived currency's per-unit value just moved, so every
            # issued ticket's base value moved with it -- which matters
            # only to holders that read a funding through it.  The base
            # currency is never marked: its per-unit value is constant
            # 1 and its tickets are worth their face amount whatever its
            # active amount -- the exemption that keeps a dispatch over
            # N base-funded threads at O(1) invalidations.
            self._invalidate_downstream()
        self._ledger._epoch += 1

    def _mark_read(self) -> None:
        """Rule 1 of the read gate: a holder is caching a funding that
        depends on this currency, hence on every currency backing it.

        A marked currency's backers are already marked (they were when
        it was, and a walk that clears one clears everything below it),
        so the climb stops at the first marked currency.
        """
        stack = [self]
        while stack:
            currency = stack.pop()
            currency._read = True
            for ticket in currency._backing:
                backer = ticket.currency
                if not (backer._read or backer.is_base):
                    stack.append(backer)

    def _issue_changed(self) -> None:
        """An issued ticket was created, destroyed or re-sized.

        Every sibling's share of the issue moved, so everything funded
        downstream is nominally stale -- except under the base currency,
        whose tickets are worth their face amount whatever the issue
        (the same exemption as in :meth:`_adjust_active`).
        """
        self._issued_total = None
        if not self.is_base:
            self._invalidate_downstream(nominal=True)

    def _invalidate_downstream(self, nominal: bool = False) -> None:
        """Invalidate every holder funded (transitively) by this currency.

        Walks issued tickets to their targets, descending through
        currency targets; the funding graph is acyclic (enforced by
        :meth:`Ledger._check_acyclic`), and the visited set keeps
        diamond-shaped funding from re-walking a currency.  With
        ``nominal`` the walk clears the nominal caches of the holders
        and currencies it reaches instead of the holders' funding.

        The active-side walk is rule 2 of the read gate: callers start
        it only at a currency marked read, and it clears the mark on
        every currency it visits.
        """
        stack: List[Currency] = [self]
        visited = {id(self)}
        while stack:
            currency = stack.pop()
            if not nominal:
                currency._read = False
            for ticket in currency._issued:
                target = ticket.target
                if target is None:
                    continue
                if isinstance(target, Currency):
                    if id(target) not in visited:
                        visited.add(id(target))
                        if nominal:
                            target._nominal_value = None
                        stack.append(target)
                elif nominal:
                    target._nominal_value = None
                else:
                    target._invalidate_funding()

    # -- valuation -----------------------------------------------------------

    def base_value(self) -> float:
        """This currency's value in base units.

        The base currency is worth its active amount (each base ticket is
        worth its face value); every other currency is worth the sum of
        its backing tickets' base values.  Results are cached per ledger
        epoch, invalidated by any funding/activation mutation.
        """
        if self.is_base:
            return self._active_amount
        epoch = self._ledger._epoch
        if self._cached_epoch == epoch and self._cached_value is not None:
            return self._cached_value
        value = sum(t.base_value() for t in self._backing)
        self._cached_value = value
        self._cached_epoch = epoch
        return value

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
            total = sum(t.amount for t in self._issued)
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
        value = self._nominal_value
        if value is None:
            value = sum(t.nominal_value() for t in self._backing)
            self._nominal_value = value
        return value

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
        #: Bumped by every mutation; keys the per-currency value cache.
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
        ticket = Ticket(currency_obj, amount, tag=tag)
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
