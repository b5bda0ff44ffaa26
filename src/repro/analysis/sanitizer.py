"""Runtime scheduler-invariant sanitizer (ASan-style, optional).

The lottery machinery rests on bookkeeping invariants that the paper
states but the code could silently drift from.  This module re-derives
them from first principles after every scheduling quantum and raises
:class:`~repro.errors.InvariantViolation` (naming the offending thread,
ticket, or currency) the moment one breaks.  Four invariant families
are checked:

1. **Ticket conservation** -- at any instant, the base-unit funding of
   all active clients sums to the ledger's active base tickets: value
   enters the system only through base tickets and flows losslessly
   through currencies (paper section 4.4).  Includes valuation-cache
   coherence -- both sides exact, and every currency a cached value
   was read through still cached, the walk gate that decides which
   invalidation walks may be skipped -- and holder/ticket
   back-reference consistency.
2. **Currency graph** -- the funding graph is acyclic (section 3.3),
   every edge is mirrored on both endpoints, each currency's cached
   ``active_amount`` equals the recomputed sum over its active issued
   tickets, and backing tickets are active exactly when the funded
   currency has active issue.
3. **Run-queue membership** -- no thread is simultaneously blocked and
   runnable, the running thread is off the queue with its tickets
   deactivated (section 4.4), and queue membership matches thread
   state and ticket activation exactly.  Under the tree lottery, every
   queued member not flagged for revaluation stores its live funding
   and every Fenwick node is the sum it stands for.
4. **Compensation lifetime** -- at most one compensation ticket per
   client, granted tickets stay attached to live holders, and the
   running thread holds none (consumed on its next win, section 4.5).

Enabling it:

* explicitly: ``InvariantSanitizer().attach(kernel)``;
* for every kernel a process creates (how ``REPRO_SANITIZE=1`` wires
  the test suites): :func:`install_autosanitize`;
* one-shot ledger audits (CLI ``sanitize``): :func:`sanitize_ledger`.

Checks are O(tickets + currencies + threads) per quantum; ``stride=N``
checks every Nth quantum when that matters.
"""

from __future__ import annotations

import math
from typing import (TYPE_CHECKING, Callable, Dict, Iterable, List, Optional,
                    Tuple)

from repro.core.tickets import Currency, Ledger, Ticket, TicketHolder
from repro.errors import InvariantViolation
from repro.oracle_ref import fresh_valuation

if TYPE_CHECKING:  # pragma: no cover
    from repro.kernel.kernel import Kernel
    from repro.kernel.thread import Thread

__all__ = [
    "InvariantSanitizer",
    "check_currency_graph",
    "check_ticket_conservation",
    "check_run_queue",
    "check_compensation",
    "sanitize_ledger",
    "install_autosanitize",
    "uninstall_autosanitize",
]

#: Tolerances for float bookkeeping drift (amounts are real-valued).
_REL_TOL = 1e-6
_ABS_TOL = 1e-6


def _close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=_REL_TOL, abs_tol=_ABS_TOL)


# -- family 2: currency funding graph -------------------------------------


def check_currency_graph(ledger: Ledger) -> List[str]:
    """Acyclicity, edge mirroring, and active-amount bookkeeping."""
    violations: List[str] = []
    currencies = ledger.currencies()

    # Acyclicity over backing edges (currency -> denominations funding it),
    # via iterative three-colour DFS so a present cycle still terminates.
    WHITE, GRAY, BLACK = 0, 1, 2
    colour: Dict[int, int] = {}
    for root in currencies:
        if colour.get(id(root), WHITE) != WHITE:
            continue
        stack = [(root, iter(list(root.backing_currencies())))]
        colour[id(root)] = GRAY
        while stack:
            node, edges = stack[-1]
            advanced = False
            for child in edges:
                state = colour.get(id(child), WHITE)
                if state == GRAY:
                    violations.append(
                        f"currency funding graph has a cycle through "
                        f"{child.name!r} (reached from {node.name!r})"
                    )
                elif state == WHITE:
                    colour[id(child)] = GRAY
                    stack.append((child, iter(list(child.backing_currencies()))))
                    advanced = True
                    break
            if not advanced:
                colour[id(node)] = BLACK
                stack.pop()

    for currency in currencies:
        # Edge mirroring: issued tickets denominate here; backing tickets
        # really target this currency.
        for ticket in currency.issued:
            if ticket.currency is not currency:
                violations.append(
                    f"ticket {ticket!r} on {currency.name!r}'s issued list "
                    f"is denominated in {ticket.currency.name!r}"
                )
            if isinstance(ticket.target, Currency) and \
                    all(t is not ticket for t in ticket.target.backing):
                violations.append(
                    f"ticket {ticket!r} funds currency "
                    f"{ticket.target.name!r} but is missing from its "
                    f"backing list"
                )
            if ticket.target is None and ticket.active:
                violations.append(
                    f"active orphan ticket {ticket!r} in currency "
                    f"{currency.name!r} funds nothing"
                )
        for ticket in currency.backing:
            if ticket.target is not currency:
                violations.append(
                    f"ticket {ticket!r} on {currency.name!r}'s backing "
                    f"list targets {getattr(ticket.target, 'name', None)!r}"
                )
            # Backing activation mirrors the funded currency's activity
            # (paper section 4.4: zero <-> non-zero transitions propagate).
            if ticket.active != (currency.active_amount > 0):
                violations.append(
                    f"backing ticket {ticket!r} of currency "
                    f"{currency.name!r} is "
                    f"{'active' if ticket.active else 'inactive'} while the "
                    f"currency's active amount is {currency.active_amount:g}"
                )
        recomputed = sum(t.amount for t in currency.issued if t.active)
        if not _close(recomputed, currency.active_amount):
            violations.append(
                f"currency {currency.name!r} active-amount bookkeeping "
                f"drifted: cached {currency.active_amount:g}, recomputed "
                f"{recomputed:g}"
            )
    return violations


# -- family 1: ticket conservation ----------------------------------------

#: Per side (``nominal``): a currency's cache slot and what it holds, a
#: holder's, then what a currency read through lacks and the walk skipped.
_SIDES = {
    False: ("_value", "base value", "_funding", "funding", "value",
            "active-side walk"),
    True: ("_nominal_value", "nominal value", "_nominal_value",
           "nominal funding", "nominal value", "nominal walk"),
}


def _check_caches(ledger: Ledger, holders: Iterable[TicketHolder],
                  nominal: bool, valuation: Tuple[Callable, Callable]
                  ) -> List[str]:
    """One side's caches, peeked (a call would fill them and hide the
    walks a run skips): each cached value must be the bit-identical
    float of ``valuation`` (that side's
    :func:`~repro.oracle_ref.fresh_valuation` pair), and the
    denomination of every ticket it sums (active ones only, on the
    active side) must still cache its own, or a mutation there walks
    nowhere and leaves this cache stale."""
    value_slot, value_noun, funding_slot, funding_noun, lacks, walk = \
        _SIDES[nominal]
    funding, currency_value = valuation
    violations: List[str] = []
    for kind, owners, slot, noun, fresh, terms in (
            ("currency", ledger.currencies(), value_slot, value_noun,
             currency_value, "backing"),
            ("holder", holders, funding_slot, funding_noun, funding,
             "tickets")):
        for owner in owners:
            cached = getattr(owner, slot)
            if cached is None:
                continue
            what = f"{kind} {owner.name!r}"
            if cached != fresh(owner):
                violations.append(
                    f"{what} cached {noun} {cached!r} != recomputed "
                    f"{fresh(owner)!r} (stale valuation cache)")
            violations.extend(
                f"{what} caches a {noun} read through currency "
                f"{t.currency.name!r}, whose {lacks} is not cached "
                f"(its next {walk} would be skipped)"
                for t in getattr(owner, terms)
                if (nominal or t.active) and not t.currency.is_base
                and getattr(t.currency, value_slot) is None)
    return violations


def check_ticket_conservation(ledger: Ledger) -> List[str]:
    """Client funding sums to the active base issue; caches are coherent."""
    violations: List[str] = []
    holders: Dict[int, TicketHolder] = {}

    for currency in ledger.currencies():
        for ticket in currency.issued:
            target = ticket.target
            if isinstance(target, TicketHolder):
                holders[id(target)] = target
                if all(t is not ticket for t in target.tickets):
                    violations.append(
                        f"ticket {ticket!r} funds holder {target.name!r} "
                        f"but is missing from its ticket list"
                    )

    try:
        violations.extend(_check_caches(ledger, holders.values(), True,
                                        fresh_valuation(nominal=True)))
    except RecursionError:
        # Nominal valuation ignores activation, so unlike base_value()
        # it never bottoms out on a (tampered-in) funding cycle.
        violations.append(
            "nominal valuation does not terminate: the currency funding "
            "graph has a cycle")

    for holder in holders.values():
        for ticket in holder.tickets:
            if ticket.target is not holder:
                violations.append(
                    f"holder {holder.name!r} lists ticket {ticket!r} that "
                    f"targets {getattr(ticket.target, 'name', None)!r}"
                )
            if ticket.active != holder.competing:
                violations.append(
                    f"holder {holder.name!r} is "
                    f"{'competing' if holder.competing else 'not competing'} "
                    f"but its ticket {ticket!r} is "
                    f"{'active' if ticket.active else 'inactive'}"
                )

    # From scratch, not through funding(): that would fill stale caches,
    # and so open walk gates, behind the run's back.  One valuation
    # serves the audit and the sum.
    active = fresh_valuation()
    violations.extend(_check_caches(ledger, holders.values(), False, active))
    total_funding = sum(map(active[0], holders.values()))
    active_base = ledger.base.active_amount
    if not _close(total_funding, active_base):
        violations.append(
            f"ticket conservation violated: active client funding "
            f"{total_funding:g} base units != active base issue "
            f"{active_base:g}"
        )
    return violations


# -- family 3: run-queue membership ----------------------------------------


def check_run_queue(kernel: "Kernel") -> List[str]:
    """Thread state, queue membership, and ticket activation agree."""
    from repro.kernel.thread import ThreadState

    violations: List[str] = []
    policy = kernel.policy
    queued = policy.runnable_threads()
    queued_ids = set()
    for thread in queued:
        if id(thread) in queued_ids:
            violations.append(
                f"thread {thread.name!r} appears twice in the run queue"
            )
        queued_ids.add(id(thread))
        if thread.state is not ThreadState.RUNNABLE:
            violations.append(
                f"thread {thread.name!r} is on the run queue while "
                f"{thread.state.value} (no thread may be both "
                f"{thread.state.value} and runnable)"
            )

    running = kernel.running
    if running is not None:
        if id(running) in queued_ids:
            violations.append(
                f"running thread {running.name!r} is still on the run queue"
            )
        if running.state is not ThreadState.RUNNING:
            violations.append(
                f"kernel.running is {running.name!r} but its state is "
                f"{running.state.value}"
            )

    for thread in kernel.threads:
        on_queue = id(thread) in queued_ids
        if thread.state is ThreadState.RUNNABLE and not on_queue:
            violations.append(
                f"thread {thread.name!r} is runnable but absent from the "
                f"run queue"
            )
        if thread.state is ThreadState.RUNNING and thread is not running:
            violations.append(
                f"thread {thread.name!r} claims to be running but is not "
                f"kernel.running"
            )
        if policy.uses_tickets:
            # Section 4.4: tickets are active exactly while the thread
            # waits on the run queue (the running thread's are not).
            if on_queue and not thread.competing:
                violations.append(
                    f"thread {thread.name!r} is on the run queue with "
                    f"deactivated tickets"
                )
            if thread.competing and not on_queue:
                violations.append(
                    f"thread {thread.name!r} has active tickets while off "
                    f"the run queue ({thread.state.value})"
                )

    tree = getattr(policy, "_tree", None)
    if tree is not None:
        violations.extend(_check_tree_lottery(tree, policy._dirty, queued))
    return violations


def _check_tree_lottery(tree, dirty, queued: Iterable["Thread"]) -> List[str]:
    """The tree lottery draws over *stored* values: they must be live.

    The policy revalues only the members their funding watchers flagged
    (``dirty``), so every other queued member's stored value must
    already be its funding, bit for bit, or the next draw runs over a
    stale tree; and every Fenwick node must be the sum it stands for,
    the one slot the tree lets lag included (``TreeLottery.audit``).
    """
    violations: List[str] = []
    fresh_funding = fresh_valuation()[0]
    for thread in queued:
        if thread not in tree:
            violations.append(
                f"thread {thread.name!r} is on the run queue but holds no "
                f"slot in the lottery tree"
            )
        elif thread not in dirty \
                and tree.value_of(thread) != fresh_funding(thread):
            violations.append(
                f"thread {thread.name!r} stores {tree.value_of(thread)!r} "
                f"in the lottery tree but is funded "
                f"{fresh_funding(thread)!r} and was not flagged for "
                f"revaluation"
            )
    violations.extend(f"lottery tree: {found}" for found in tree.audit())
    return violations


# -- family 4: compensation-ticket lifetime ---------------------------------


def check_compensation(kernel: "Kernel") -> List[str]:
    """At most one live compensation ticket per client, none while running."""
    from repro.kernel.thread import Thread, ThreadState

    violations: List[str] = []
    by_holder: Dict[int, List[Ticket]] = {}
    names: Dict[int, str] = {}
    for currency in kernel.ledger.currencies():
        for ticket in currency.issued:
            if ticket.tag == "compensation" and \
                    isinstance(ticket.target, TicketHolder):
                by_holder.setdefault(id(ticket.target), []).append(ticket)
                names[id(ticket.target)] = ticket.target.name
    for key, tickets in by_holder.items():
        if len(tickets) > 1:
            violations.append(
                f"holder {names[key]!r} carries {len(tickets)} compensation "
                f"tickets (exactly one may be outstanding)"
            )

    manager = getattr(kernel.policy, "compensation", None)
    if manager is not None:
        for holder, ticket in manager.grants():
            if ticket.target is not holder:
                violations.append(
                    f"compensation ticket {ticket!r} tracked for "
                    f"{holder.name!r} no longer funds it"
                )
            if isinstance(holder, Thread):
                if holder.state is ThreadState.EXITED:
                    violations.append(
                        f"exited thread {holder.name!r} still holds a "
                        f"compensation ticket"
                    )
                if holder is kernel.running:
                    violations.append(
                        f"running thread {holder.name!r} holds a "
                        f"compensation ticket (must be consumed on the "
                        f"win that dispatched it)"
                    )
    return violations


# -- the sanitizer object ----------------------------------------------------


def sanitize_ledger(ledger: Ledger) -> List[str]:
    """One-shot audit of a bare ledger (graph + conservation families)."""
    return check_currency_graph(ledger) + check_ticket_conservation(ledger)


class InvariantSanitizer:
    """Attachable post-quantum checker for all four invariant families.

    Parameters
    ----------
    stride:
        Check every Nth quantum (1 = every quantum).
    raise_on_violation:
        Raise :class:`InvariantViolation` immediately (default); when
        False, violations accumulate on :attr:`violations` instead.
    """

    def __init__(self, stride: int = 1, raise_on_violation: bool = True) -> None:
        if stride < 1:
            raise ValueError(f"stride must be >= 1, got {stride}")
        self.stride = stride
        self.raise_on_violation = raise_on_violation
        self.quanta_seen = 0
        self.checks_run = 0
        self.violations: List[str] = []

    def attach(self, kernel: "Kernel") -> "InvariantSanitizer":
        """Hook this sanitizer into a kernel's post-quantum hook list."""
        kernel.invariant_hooks.append(self._after_quantum)
        return self

    def detach(self, kernel: "Kernel") -> None:
        """Remove this sanitizer's hook from a kernel."""
        try:
            kernel.invariant_hooks.remove(self._after_quantum)
        except ValueError:
            pass

    def _after_quantum(self, kernel: "Kernel", thread: "Thread",
                       outcome: str) -> None:
        self.quanta_seen += 1
        if self.quanta_seen % self.stride == 0:
            self.check(kernel)

    def check(self, kernel: "Kernel") -> List[str]:
        """Run every family now; raise or record any violations."""
        found = (
            check_currency_graph(kernel.ledger)
            + check_ticket_conservation(kernel.ledger)
            + check_run_queue(kernel)
            + check_compensation(kernel)
        )
        self.checks_run += 1
        if found:
            self.violations.extend(found)
            if self.raise_on_violation:
                raise InvariantViolation(
                    "scheduler invariants violated:\n  " + "\n  ".join(found)
                )
        return found


# -- process-wide wiring (REPRO_SANITIZE=1) ----------------------------------

_auto_hook: Optional[Callable] = None


def install_autosanitize(stride: int = 1) -> None:
    """Attach a fresh sanitizer to every kernel constructed from now on.

    Also arms the determinism-race tracker
    (:data:`repro.analysis.races.tracker`): thread lifecycle mutations
    are owner-checked against the dispatching kernel, trapping
    cross-owner mutation outside a declared barrier seam.

    Idempotent; used by ``tests/conftest.py`` under ``REPRO_SANITIZE=1``
    so the whole suite runs fully instrumented.
    """
    global _auto_hook
    if _auto_hook is not None:
        return
    from repro.analysis.races import tracker
    from repro.kernel import kernel as kernel_module

    def _hook(kernel: "Kernel") -> None:
        InvariantSanitizer(stride=stride).attach(kernel)

    kernel_module.add_construction_hook(_hook)
    tracker.activate()
    _auto_hook = _hook


def uninstall_autosanitize() -> None:
    """Stop instrumenting newly constructed kernels and disarm the
    determinism-race tracker."""
    global _auto_hook
    if _auto_hook is None:
        return
    from repro.analysis.races import tracker
    from repro.kernel import kernel as kernel_module

    kernel_module.remove_construction_hook(_auto_hook)
    tracker.deactivate()
    _auto_hook = None
