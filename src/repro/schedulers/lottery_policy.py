"""The lottery scheduling policy (the paper's contribution, section 4).

Wires the core mechanisms into the kernel's policy interface:

* the run queue is a :class:`~repro.core.lottery.ListLottery` with the
  prototype's move-to-front heuristic (or an O(log n)
  :class:`~repro.core.lottery.TreeLottery`);
* run-queue entry/exit activates/deactivates the thread's tickets,
  propagating through the currency graph (section 4.4);
* each ``select`` holds one lottery over the runnable threads' current
  base-unit funding;
* quantum accounting grants compensation tickets to threads that
  under-use their quanta (section 4.5).

Threads whose funding is zero cannot win (the paper's guarantee is for
clients holding tickets); by default a zero-funding run queue falls
back to FIFO order so simulations without any funded thread still make
progress -- disable with ``zero_funding_fallback=False`` to get the
strict starve-the-unfunded semantics.
"""

from __future__ import annotations

from operator import methodcaller
from typing import Optional, TYPE_CHECKING

from repro.core.compensation import CompensationManager
from repro.core.lottery import ListLottery, TreeLottery
from repro.core.prng import ParkMillerPRNG
from repro.core.tickets import Ledger
from repro.errors import EmptyLotteryError
from repro.schedulers.base import SchedulingPolicy

if TYPE_CHECKING:  # pragma: no cover
    from repro.kernel.thread import Thread

__all__ = ["LotteryPolicy"]


class LotteryPolicy(SchedulingPolicy):
    """Proportional-share scheduling by lottery.

    Parameters
    ----------
    ledger:
        The ticket/currency registry funding the threads.
    prng:
        Winning-ticket source; defaults to a fresh Park-Miller stream.
    move_to_front:
        Apply the prototype's move-to-front heuristic (section 4.2).
    use_tree:
        Use the O(log n) partial-sum tree instead of the list.  Stored
        values are kept current by funding-invalidation watchers: a
        select only revalues the members whose funding actually changed
        since the last draw.
    compensation:
        Grant compensation tickets (section 4.5).  The ablation
        experiment turns this off to reproduce the 1:5 distortion.
    zero_funding_fallback:
        Run unfunded threads FIFO instead of starving them.
    """

    name = "lottery"
    uses_tickets = True

    def __init__(
        self,
        ledger: Ledger,
        prng: Optional[ParkMillerPRNG] = None,
        move_to_front: bool = True,
        use_tree: bool = False,
        compensation: bool = True,
        zero_funding_fallback: bool = True,
    ) -> None:
        self.ledger = ledger
        self.prng = prng if prng is not None else ParkMillerPRNG(1)
        self._use_tree = use_tree
        self._zero_funding_fallback = zero_funding_fallback
        self.compensation: Optional[CompensationManager] = (
            CompensationManager(ledger) if compensation else None
        )
        if use_tree:
            self._tree: Optional[TreeLottery["Thread"]] = TreeLottery()
            self._list: Optional[ListLottery["Thread"]] = None
            # Insertion-ordered membership index with O(1) removal (a
            # dict used as an ordered set; a list's remove() made every
            # dequeue O(n), defeating the tree's O(log n) draws).
            self._members: dict = {}
        else:
            self._tree = None
            # ``funding`` looked up on each thread at each read, as a
            # lambda would, but with no frame of its own.
            self._list = ListLottery(
                value_of=methodcaller("funding"), move_to_front=move_to_front
            )
        #: Members whose funding was invalidated since their stored tree
        #: value was last pushed (ordered set; tree mode only).  Fed by
        #: the holders' funding watchers, drained by :meth:`select`.
        self._dirty: dict = {}
        #: The members' funding watcher, one for all: ``setdefault(holder)``
        #: is the ordered-set add, in C (no frame, nothing allocated per
        #: enqueue).
        self._mark_dirty = self._dirty.setdefault
        #: Lotteries actually held (overhead accounting).
        self.lotteries_held = 0
        #: Times the zero-funding FIFO fallback fired.
        self.fallback_selections = 0
        #: Optional observer called once per lottery draw with seven
        #: positional facts: the winner, its nominal funding, the total
        #: at stake, the runnable count, the clients examined, the
        #: fallback flag and the PRNG position.  Installed by
        #: ``repro.telemetry``; must not mutate scheduling state.
        self.draw_hook = None

    # -- policy interface -----------------------------------------------------

    def enqueue(self, thread: "Thread") -> None:
        thread.start_competing()
        if self._tree is not None:
            # funding() below recomputes (competing just changed), so
            # the stored value is fresh; only invalidations arriving
            # after this point need to dirty the member.
            self._tree.add(thread, thread.funding())
            self._members[thread] = None
            thread.funding_watcher = self._mark_dirty
        else:
            assert self._list is not None
            self._list.add(thread)

    def dequeue(self, thread: "Thread") -> None:
        if self._tree is not None:
            self._tree.remove(thread)
            self._members.pop(thread, None)
            # Unhook before stop_competing: the deactivations below must
            # not re-dirty a member that no longer has a tree slot.
            thread.funding_watcher = None
            self._dirty.pop(thread, None)
        else:
            assert self._list is not None
            self._list.remove(thread)
        thread.stop_competing()

    def select(self) -> Optional["Thread"]:
        tree = self._tree
        if tree is not None:
            if not self._members:
                return None
            if self._dirty:
                # Only members whose funding actually changed since their
                # stored value was pushed; Fenwick nodes are pure
                # functions of the stored values, so skipping unchanged
                # members leaves the tree bit-identical to revaluing
                # every member.  O(invalidated), not O(n): only
                # watcher-flagged members.
                for member in self._dirty:
                    tree.set_value(member, member.funding())
                self._dirty.clear()
            structure = tree
        else:
            structure = self._list
            assert structure is not None
            if not structure._clients:  # its __len__, without the frame
                return None
        fallback = False
        examined_before = structure.stats.comparisons
        try:
            winner = structure.draw(self.prng)
            self.lotteries_held += 1
        except EmptyLotteryError:
            if not self._zero_funding_fallback:
                return None
            winner = self._first_member()
            self.fallback_selections += 1
            fallback = True
        draw = None
        if self.draw_hook is not None:
            # Funding totals must be read before dequeue deactivates the
            # winner's tickets; nominal funding is activation-independent.
            draw = (winner, winner.nominal_funding(), structure.total(),
                    len(structure),
                    structure.stats.comparisons - examined_before, fallback,
                    self.prng.state)
        self.dequeue(winner)
        if self.compensation is not None:
            # A fresh quantum begins: outstanding compensation expires
            # (section 4.5: "until the thread starts its next quantum").
            self.compensation.on_quantum_start(winner)
        if draw is not None:
            self.draw_hook(*draw)
        return winner

    def quantum_end(self, thread: "Thread", used: float, quantum: float,
                    still_runnable: bool) -> None:
        if self.compensation is not None:
            self.compensation.on_quantum_end(thread, used, quantum)

    def thread_exited(self, thread: "Thread") -> None:
        if self.compensation is not None:
            self.compensation.on_holder_removed(thread)

    def runnable_count(self) -> int:
        structure = self._tree if self._tree is not None else self._list
        assert structure is not None
        return len(structure)

    def runnable_threads(self) -> list:
        if self._tree is not None:
            return list(self._members)  # insertion (enqueue) order
        assert self._list is not None
        return self._list.clients()

    def snapshot_state(self) -> dict:
        state = super().snapshot_state()
        state.update({
            "prng": self.prng.snapshot_state(),
            "use_tree": self._use_tree,
            # Constant: tree members always watch funding.  The key
            # stays because pinned state trees contain it.
            "static_funding": False,
            "zero_funding_fallback": self._zero_funding_fallback,
            "lotteries_held": self.lotteries_held,
            "fallback_selections": self.fallback_selections,
            "compensation": (None if self.compensation is None
                             else self.compensation.snapshot_state()),
        })
        if self._tree is not None:
            state["structure"] = self._tree.snapshot_state(
                key=lambda t: t.tid)
        else:
            assert self._list is not None
            state["structure"] = self._list.snapshot_state(
                key=lambda t: t.tid)
        return state

    # -- internals ----------------------------------------------------------------

    def _first_member(self) -> "Thread":
        if self._tree is not None:
            return next(iter(self._members))
        assert self._list is not None
        return self._list.head()

    def draw_stats(self):
        """Search-length statistics of the underlying structure."""
        structure = self._tree if self._tree is not None else self._list
        assert structure is not None
        return structure.stats
