"""Mutexes: standard FIFO and lottery-scheduled (paper section 6.1).

The lottery-scheduled mutex extends the CThreads-style lock with two
kernel objects (paper Figure 10):

* a **mutex currency**, funded by ticket transfers from every thread
  blocked on the lock;
* an **inheritance ticket**, issued in the mutex currency and funding
  whichever thread currently holds the lock.

The net effect: the owner executes with its own funding *plus* the
aggregate funding of all waiters, which solves priority inversion the
way priority inheritance does [Sha90] -- a poorly funded owner cannot
crawl while richly funded threads wait behind it.

On release, the owner holds a **lottery among the waiting threads**
(weighted by each waiter's funding captured at block time) to pick the
next owner, moves the inheritance ticket to the winner, revokes the
winner's transfer, and wakes it.  The released thread keeps running --
"the next thread to execute may be the selected waiter or some other
thread; the normal processor lottery will choose fairly based on
relative funding."

Waiting-time and acquisition statistics are recorded per thread so
Figure 11's histograms/ratios can be regenerated.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque, Dict, List, Optional, TYPE_CHECKING

from repro.core.lottery import hold_lottery
from repro.core.prng import ParkMillerPRNG
from repro.core.transfers import TransferHandle, transfer_funding
from repro.errors import KernelError

if TYPE_CHECKING:  # pragma: no cover
    from repro.kernel.kernel import Kernel
    from repro.kernel.thread import Thread

__all__ = ["MutexBase", "Mutex", "LotteryMutex"]


class _Waiter:
    """Book-keeping for one blocked thread."""

    __slots__ = ("thread", "since", "funding", "transfer")

    def __init__(self, thread: "Thread", since: float, funding: float,
                 transfer: Optional[TransferHandle]) -> None:
        self.thread = thread
        self.since = since
        self.funding = funding
        self.transfer = transfer


class MutexBase:
    """Common owner/statistics machinery for both mutex flavours."""

    def __init__(self, kernel: "Kernel", name: str = "mutex") -> None:
        self.kernel = kernel
        self.name = name
        self.owner: Optional["Thread"] = None
        #: Per-thread acquisition counts (tid -> count).
        self.acquisitions: Dict[int, int] = {}
        #: Per-thread waiting times in ms (tid -> list of waits).
        self.waiting_times: Dict[int, List[float]] = {}
        self._acquired_at: Optional[float] = None
        #: Total time the lock was held (contention diagnostics).
        self.held_time = 0.0

    # -- subclass hooks ---------------------------------------------------------

    def _enqueue_waiter(self, thread: "Thread") -> None:
        raise NotImplementedError

    def _pick_next(self) -> Optional[_Waiter]:
        raise NotImplementedError

    def _on_acquired(self, thread: "Thread") -> None:
        """Funding hand-off hook (inheritance ticket)."""

    def _on_released(self, thread: "Thread") -> None:
        """Funding hand-off hook."""

    # -- operations (called by the kernel's syscall interpreter) --------------------

    def acquire(self, thread: "Thread") -> Any:
        """Take the lock or block; returns kernel.BLOCK when blocking."""
        from repro.kernel.kernel import BLOCK  # local import: cycle guard

        if self.owner is thread:
            raise KernelError(f"thread {thread.name!r} already owns {self.name!r}")
        if self.owner is None:
            self._grant(thread, waited=0.0)
            return None
        self._enqueue_waiter(thread)
        return BLOCK

    def release(self, thread: "Thread") -> None:
        """Give up the lock, handing it to a waiter if any."""
        if self.owner is not thread:
            raise KernelError(
                f"thread {thread.name!r} released {self.name!r} without owning it"
            )
        if self._acquired_at is not None:
            self.held_time += self.kernel.now - self._acquired_at
            self._acquired_at = None
        self._on_released(thread)
        self.owner = None
        waiter = self._pick_next()
        if waiter is None:
            return
        if waiter.transfer is not None:
            waiter.transfer.revoke()
        waited = self.kernel.now - waiter.since
        self._grant(waiter.thread, waited=waited)
        self.kernel.wake(waiter.thread)

    # -- internals -------------------------------------------------------------------

    def _grant(self, thread: "Thread", waited: float) -> None:
        self.owner = thread
        self._acquired_at = self.kernel.now
        self.acquisitions[thread.tid] = self.acquisitions.get(thread.tid, 0) + 1
        self.waiting_times.setdefault(thread.tid, []).append(waited)
        self._on_acquired(thread)

    # -- statistics ----------------------------------------------------------------------

    def mean_waiting_time(self, thread: "Thread") -> float:
        """Average time this thread spent blocked per acquisition (ms)."""
        waits = self.waiting_times.get(thread.tid, [])
        if not waits:
            return 0.0
        return sum(waits) / len(waits)

    def total_acquisitions(self) -> int:
        """Lock grants across all threads."""
        return sum(self.acquisitions.values())

    @property
    def locked(self) -> bool:
        """Whether some thread currently owns the lock."""
        return self.owner is not None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        owner = self.owner.name if self.owner else None
        return f"<{type(self).__name__} {self.name!r} owner={owner!r}>"


class Mutex(MutexBase):
    """The standard CThreads-style mutex: FIFO waiters, no funding flow."""

    def __init__(self, kernel: "Kernel", name: str = "mutex") -> None:
        super().__init__(kernel, name)
        self._waiters: Deque[_Waiter] = deque()

    def _enqueue_waiter(self, thread: "Thread") -> None:
        self._waiters.append(_Waiter(thread, self.kernel.now, 0.0, None))

    def _pick_next(self) -> Optional[_Waiter]:
        if not self._waiters:
            return None
        return self._waiters.popleft()


class LotteryMutex(MutexBase):
    """Lottery-scheduled mutex with waiter funding inheritance.

    Parameters
    ----------
    kernel:
        Owning kernel (supplies the ledger and wake operations).
    name:
        Used to name the mutex currency (must be unique per ledger).
    prng:
        Stream for release lotteries; defaults to a fresh one.
    """

    def __init__(self, kernel: "Kernel", name: str = "lock",
                 prng: Optional[ParkMillerPRNG] = None) -> None:
        super().__init__(kernel, name)
        self.prng = prng if prng is not None else ParkMillerPRNG(1)
        ledger = kernel.ledger
        #: The mutex currency, funded by waiter transfers (Figure 10).
        self.currency = ledger.create_currency(f"mutex:{name}")
        #: The inheritance ticket, moved to each successive owner.
        self.inheritance_ticket = ledger.create_ticket(
            1, currency=self.currency, tag="inheritance"
        )
        self._waiters: List[_Waiter] = []
        #: Release lotteries held (diagnostics).
        self.release_lotteries = 0

    # -- funding hooks ------------------------------------------------------------

    def _on_acquired(self, thread: "Thread") -> None:
        # Move the inheritance ticket to the new owner: it now executes
        # with its own funding plus the aggregate waiter funding backing
        # the mutex currency.
        if self.inheritance_ticket.target is not None:
            self.inheritance_ticket.unfund()
        self.inheritance_ticket.fund(thread)

    def _on_released(self, thread: "Thread") -> None:
        if self.inheritance_ticket.target is thread:
            self.inheritance_ticket.unfund()

    # -- waiter management -----------------------------------------------------------

    def _enqueue_waiter(self, thread: "Thread") -> None:
        # Capture funding before minting the transfer (the mint would
        # dilute the nominal view), then transfer the waiter's rights to
        # the mutex currency.
        funding = thread.nominal_funding()
        transfer = transfer_funding(self.kernel.ledger, thread, self.currency)
        self._waiters.append(
            _Waiter(thread, self.kernel.now, funding, transfer)
        )

    def _pick_next(self) -> Optional[_Waiter]:
        if not self._waiters:
            return None
        if len(self._waiters) == 1:
            winner = self._waiters.pop()
            return winner
        entries = [(w, w.funding) for w in self._waiters]
        if all(f <= 0 for _, f in entries):
            # Unfunded waiters: fall back to FIFO.
            winner = self._waiters.pop(0)
        else:
            winner = hold_lottery(entries, self.prng)
            self._waiters.remove(winner)
        self.release_lotteries += 1
        return winner

    def waiter_funding(self) -> float:
        """Aggregate funding currently backing the mutex currency."""
        return self.currency.base_value()
