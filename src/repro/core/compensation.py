"""Compensation tickets (paper sections 3.4 and 4.5).

A client that consumes only a fraction ``f`` of its allocated time
quantum would, under a plain lottery, receive ``f`` times its entitled
CPU share: it wins lotteries at the right rate but banks less CPU per
win.  The paper repairs this by granting the client a **compensation
ticket** that inflates its funding by ``1/f`` until the client starts
its next quantum, restoring consumption to ``rate * proportional
share`` and letting I/O-bound tasks that use few cycles start quickly.

Worked example from section 4.5: threads A and B each hold tickets
worth 400 base units; B always yields after 20 of its 100 ms quantum
(f = 1/5).  On yielding, B is granted a compensation ticket worth
400 * (5 - 1) = 1600 base units, so B competes with 2000 vs. A's 400
and wins five times as often -- exactly cancelling its 1/5-size turns.

The manager below grants real base-currency tickets (as the prototype
does), so compensation automatically interacts correctly with
currencies, transfers, and the run-queue activation rules.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.core.tickets import Ledger, Ticket, TicketHolder
from repro.errors import SchedulerError

__all__ = ["CompensationManager", "MIN_FRACTION"]

#: Quantum fractions below this are clamped to bound compensation values.
#: A thread that runs for ~0 time would otherwise receive unbounded
#: funding; the prototype's clock granularity imposes the same floor
#: (1 ms of a 100 ms quantum).
MIN_FRACTION = 0.01

#: Usage below this (virtual ms) reads as "consumed nothing": the
#: prototype's clock could not measure it, and 1/f would be unbounded.
MIN_MEASURABLE_USE = 1e-6


class CompensationManager:
    """Grants and revokes compensation tickets around quantum boundaries.

    The kernel calls :meth:`on_quantum_end` whenever a thread leaves the
    CPU, reporting how much of its quantum it used, and
    :meth:`on_quantum_start` when a thread is dispatched.  At most one
    compensation ticket exists per client at a time.
    """

    def __init__(self, ledger: Ledger) -> None:
        self._ledger = ledger
        self._grants: Dict[int, Ticket] = {}
        self._holders: Dict[int, TicketHolder] = {}
        #: Total compensation tickets granted (for overhead accounting).
        self.grants_issued = 0

    # -- kernel hooks ------------------------------------------------------

    def on_quantum_start(self, holder: TicketHolder) -> None:
        """Revoke any outstanding compensation when a full quantum begins."""
        if self._grants:
            self._revoke(holder)

    def on_quantum_end(
        self, holder: TicketHolder, used: float, quantum: float
    ) -> None:
        """Grant compensation if the holder under-used its quantum.

        ``used`` is CPU time actually consumed this dispatch; ``quantum``
        the full allocation.  Using the whole quantum (or more, if the
        clock overshoots) grants nothing.
        """
        if quantum <= 0:
            raise SchedulerError(f"quantum must be positive, got {quantum}")
        if used < 0:
            raise SchedulerError(f"negative usage {used}")
        if self._grants:  # nothing to revoke otherwise: skip the call
            self._revoke(holder)
        if used < MIN_MEASURABLE_USE:
            # Blocked before consuming measurable CPU: below the clock
            # granularity, no compensation is defined (1/f diverges).
            return
        fraction = used / quantum
        if fraction >= 1.0:
            return
        fraction = max(fraction, MIN_FRACTION)
        # Funding *excluding* compensation (just revoked above).  The
        # grant tops the client up to funding / fraction.  A *blocked*
        # holder's tickets are deactivated (funding() == 0), but it must
        # still be granted compensation -- that is precisely how the
        # paper's I/O-bound tasks "start quickly" when they wake -- so
        # fall back to the nominal (as-if-active) valuation.
        funding = holder.funding()
        if funding <= 0:
            funding = holder.nominal_funding()
        if funding <= 0:
            # Genuinely unfunded: nothing to compensate.
            return
        bonus = funding * (1.0 / fraction - 1.0)
        ticket = self._ledger.create_ticket(bonus, fund=holder, tag="compensation")
        self._grants[id(holder)] = ticket
        self._holders[id(holder)] = holder
        self.grants_issued += 1

    def on_holder_removed(self, holder: TicketHolder) -> None:
        """Clean up when a thread exits the system entirely."""
        self._revoke(holder)

    # -- inspection ------------------------------------------------------------

    def compensation_value(self, holder: TicketHolder) -> float:
        """Current compensation funding for a client (0 if none)."""
        ticket = self._grants.get(id(holder))
        return ticket.amount if ticket is not None else 0.0

    def outstanding(self) -> int:
        """Number of clients currently holding a compensation ticket."""
        return len(self._grants)

    def grants(self) -> List[Tuple[TicketHolder, Ticket]]:
        """Current (holder, compensation ticket) pairs, grant order.

        Exposed for the invariant sanitizer, which audits that every
        tracked grant still funds a live, non-running holder.
        """
        # Dict views preserve insertion (= grant) order and the
        # consumer is order-insensitive, so the iteration is safe.
        return [(self._holders[key], ticket)  # repro: noqa[RPR003] -- insertion order
                for key, ticket in self._grants.items()]

    def snapshot_state(self) -> dict:
        """Typed state tree for checkpointing (see ``repro.checkpoint``).

        Grants are keyed by holder *name* in grant order -- the stable,
        serializable identity two deterministic runs share (the ``id()``
        keys used internally are process-local and never serialized).
        """
        return {
            "grants_issued": self.grants_issued,
            "outstanding": [
                {"holder": holder.name, "amount": ticket.amount}
                for holder, ticket in self.grants()
            ],
        }

    # -- internals ----------------------------------------------------------------

    def _revoke(self, holder: TicketHolder) -> None:
        ticket: Optional[Ticket] = self._grants.pop(id(holder), None)
        if ticket is not None:
            del self._holders[id(holder)]
            ticket.destroy()
