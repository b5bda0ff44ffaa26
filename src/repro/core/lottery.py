"""Lottery draw mechanisms (paper section 4.2, Figure 1).

Three interchangeable implementations of "pick the client holding the
winning ticket":

* :class:`ListLottery` -- the paper prototype's structure: generate a
  random winning value in ``[0, total)``, then walk a client list
  accumulating a running ticket sum until it crosses the winning value.
  Optional **move-to-front** heuristic: frequently winning (i.e. highly
  funded) clients migrate toward the head, shortening the average
  search.  Optional **sorted** mode keeps clients ordered by decreasing
  value, the other optimization the paper suggests.
* :class:`TreeLottery` -- the O(log n) structure the paper recommends
  for large n: a binary tree of partial ticket sums (implemented as a
  Fenwick tree with a top-down prefix-sum descent), requiring only
  ``lg n`` additions and comparisons per draw.
* :func:`hold_lottery` -- a one-shot functional lottery over
  ``(client, value)`` pairs, used wherever a persistent structure is
  overkill (inverse lotteries, mutex wake-ups, tests).

All mechanisms draw their randomness from a
:class:`~repro.core.prng.ParkMillerPRNG` so identical seeds reproduce
identical scheduling histories.

Client values are *base-unit funding* and may be any non-negative
floats; clients whose value is zero can never win (the paper's
starvation-freedom claim applies to clients holding a non-zero number
of tickets).
"""

from __future__ import annotations

from typing import Callable, Generic, Hashable, List, Optional, Sequence, Tuple, TypeVar

from repro.core.prng import ParkMillerPRNG
from repro.errors import EmptyLotteryError, SchedulerError

__all__ = ["hold_lottery", "ListLottery", "TreeLottery", "DrawStats"]

ClientT = TypeVar("ClientT", bound=Hashable)

_INF = float("inf")


def _bad_value(client: object, value: object) -> SchedulerError:
    """The refusal for a value outside ``0 <= value < inf`` (NaN included)."""
    return SchedulerError(
        f"lottery value of client {client!r} must be finite and "
        f"non-negative, got {value!r}"
    )


def _not_member(client: object) -> SchedulerError:
    return SchedulerError(f"client {client!r} not in lottery")


def hold_lottery(
    entries: Sequence[Tuple[ClientT, float]],
    prng: ParkMillerPRNG,
) -> ClientT:
    """Run one lottery over ``(client, value)`` pairs; return the winner.

    The winning ticket value is uniform on ``[0, total)``; the client
    whose running-sum interval contains it wins -- exactly Figure 1's
    procedure with real-valued ticket totals.
    """
    total = 0.0
    for client, value in entries:
        if not 0 <= value < _INF:
            raise _bad_value(client, value)
        total += value
    if total <= 0:
        raise EmptyLotteryError("lottery held with zero total tickets")
    winning = prng.uniform() * total
    accumulated = 0.0
    last_funded: Optional[ClientT] = None
    for client, value in entries:
        if value <= 0:
            continue
        accumulated += value
        last_funded = client
        if accumulated > winning:
            return client
    # Floating-point accumulation can land exactly on the boundary; the
    # final funded client owns the residual interval.
    assert last_funded is not None
    return last_funded


class DrawStats:
    """Counters describing how much work draws performed.

    ``draws`` is the number of lotteries held, ``comparisons`` the total
    clients examined (list) or tree levels descended (tree); their ratio
    is the average search length the paper's heuristics try to shrink.
    """

    __slots__ = ("draws", "comparisons")

    def __init__(self) -> None:
        self.draws = 0
        self.comparisons = 0

    def average_search_length(self) -> float:
        """Mean number of clients/levels examined per draw."""
        if self.draws == 0:
            return 0.0
        return self.comparisons / self.draws

    def reset(self) -> None:
        self.draws = 0
        self.comparisons = 0


class ListLottery(Generic[ClientT]):
    """List-based lottery with optional move-to-front / sorted heuristics.

    Parameters
    ----------
    value_of:
        Callback returning a client's current base-unit funding.  It is
        consulted afresh on every draw, so currency fluctuations and
        compensation tickets are always reflected in the very next
        allocation decision -- the responsiveness property of section 2.
    move_to_front:
        After each draw, move the winner to the head of the list.
    keep_sorted:
        Before each draw, order clients by decreasing value.  Mutually
        exclusive with ``move_to_front``.
    """

    def __init__(
        self,
        value_of: Callable[[ClientT], float],
        move_to_front: bool = True,
        keep_sorted: bool = False,
    ) -> None:
        if move_to_front and keep_sorted:
            raise SchedulerError("choose move_to_front or keep_sorted, not both")
        self._value_of = value_of
        self._move_to_front = move_to_front
        self._keep_sorted = keep_sorted
        self._clients: List[ClientT] = []
        self.stats = DrawStats()
        #: The last draw's values, in the order it left the list: what
        #: :meth:`total` would sum (the draw hook sums these instead).
        self._drawn: List[float] = []

    # -- membership -----------------------------------------------------------

    def add(self, client: ClientT) -> None:
        """Enter a client into subsequent lotteries."""
        if client in self._clients:
            raise SchedulerError(f"client {client!r} already in lottery")
        self._clients.append(client)

    def remove(self, client: ClientT) -> None:
        """Withdraw a client from subsequent lotteries."""
        try:
            self._clients.remove(client)
        except ValueError:
            raise SchedulerError(f"client {client!r} not in lottery") from None

    def __contains__(self, client: object) -> bool:
        return client in self._clients

    def __len__(self) -> int:
        return len(self._clients)

    def clients(self) -> List[ClientT]:
        """Current client order (head first)."""
        return list(self._clients)

    def head(self) -> ClientT:
        """The client at the head of the list (no copy)."""
        if not self._clients:
            raise EmptyLotteryError("lottery has no clients")
        return self._clients[0]

    # -- drawing ----------------------------------------------------------------

    def total(self) -> float:
        """Sum of all clients' current values."""
        return sum(self._value_of(c) for c in self._clients)

    def draw(self, prng: ParkMillerPRNG) -> ClientT:
        """Hold one lottery and return the winner.

        Raises :class:`~repro.errors.EmptyLotteryError` when no client
        has positive funding -- callers (the kernel) treat that as an
        idle CPU.
        """
        if not self._clients:
            raise EmptyLotteryError("lottery held with no clients")
        values = self._drawn = list(map(self._value_of, self._clients))
        total = sum(values)
        if total <= 0:
            raise EmptyLotteryError("lottery held with zero total funding")
        if self._keep_sorted:
            order = sorted(
                range(len(self._clients)), key=values.__getitem__, reverse=True
            )
            self._clients = [self._clients[i] for i in order]
            values = self._drawn = [values[i] for i in order]
        winning = prng.uniform() * total
        accumulated = 0.0
        winner_index = -1
        examined = 0
        for index, value in enumerate(values):
            examined += 1
            accumulated += value
            if value > 0 and accumulated > winning:
                winner_index = index
                break
        if winner_index < 0:
            # Floating-point boundary: last positive-value client wins.
            for index in range(len(values) - 1, -1, -1):
                if values[index] > 0:
                    winner_index = index
                    break
        winner = self._clients[winner_index]
        self.stats.draws += 1
        self.stats.comparisons += examined
        if self._move_to_front and winner_index > 0:
            del self._clients[winner_index]
            self._clients.insert(0, winner)
            values.insert(0, values.pop(winner_index))
        return winner

    def snapshot_state(self, key: Callable[[ClientT], object] = repr) -> dict:
        """Typed state tree for checkpointing (see ``repro.checkpoint``).

        The client *order* is semantic state here: move-to-front
        reshuffles it on every draw, so two runs agree only if their
        list orders agree.  ``key`` maps clients to serializable ids.
        """
        return {
            "order": [key(client) for client in self._clients],
            "move_to_front": self._move_to_front,
            "keep_sorted": self._keep_sorted,
            "draws": self.stats.draws,
            "comparisons": self.stats.comparisons,
        }


class TreeLottery(Generic[ClientT]):
    """O(log n) lottery over a binary tree of partial ticket sums.

    Clients occupy slots in a Fenwick (binary indexed) tree holding
    their ticket values; a draw generates one random value and descends
    the implicit tree with ``lg n`` additions/comparisons, exactly the
    structure the paper proposes for large client populations and as
    the basis of a distributed lottery scheduler (section 4.2).

    Unlike :class:`ListLottery`, values are **stored**, not recomputed
    per draw: callers must push changes via :meth:`set_value`.  The
    honest cost model of the tree variant:

    * a draw is O(log n);
    * a slot whose value *changed* costs one exact O(log^2 n) refresh
      of the nodes above it (:meth:`_fenwick_refresh`), run when the
      nodes are next read rather than at the write;
    * a slot rewritten with the value it had -- a client removed and
      re-added unchanged, i.e. every preempted thread's dequeue and
      re-enqueue -- costs nothing.

    ``_values`` is always current; the nodes above **at most one** slot
    may lag behind it.  A write remembers the slot and the value the
    nodes still reflect; a write to any other slot (:meth:`_store`) and
    every reader of the nodes (:meth:`total`, which :meth:`draw` starts
    with) settle first.  Deferring is exact because a
    refresh is a pure function of the current ``_values`` and every
    node that reads a slot lies on that slot's own update path, so one
    refresh after several writes leaves the bits a refresh per write
    would have.  One lagging slot is all the dispatch cycle needs and
    keeps the settle a single comparison.
    """

    def __init__(self) -> None:
        self._tree: List[float] = [0.0]  # 1-indexed Fenwick array
        self._values: List[float] = []  # slot -> value
        self._clients: List[Optional[ClientT]] = []  # slot -> client
        self._slot_of: dict = {}
        self._free_slots: List[int] = []
        # The one slot whose nodes may lag (-1: none) and the value
        # those nodes still reflect.
        self._lag_slot = -1
        self._lag_value = 0.0
        self.stats = DrawStats()

    # -- membership -----------------------------------------------------------

    def add(self, client: ClientT, value: float) -> None:
        """Insert a client with an initial ticket value."""
        if client in self._slot_of:
            raise SchedulerError(f"client {client!r} already in lottery")
        if not 0 <= value < _INF:
            raise _bad_value(client, value)
        if self._free_slots:
            slot = self._free_slots.pop()
            self._clients[slot] = client
            self._store(slot, value)
        else:
            slot = len(self._values)
            self._values.append(value)
            self._clients.append(client)
            self._tree.append(0.0)
            # The last slot's update path is its own node.  It sums its
            # child nodes as they are: if one lags, the new node covers
            # the lagging slot too, lags with it and settles with it.
            self._fenwick_refresh(slot)
        self._slot_of[client] = slot

    def remove(self, client: ClientT) -> None:
        """Withdraw a client; its slot is recycled."""
        try:
            slot = self._slot_of[client]
        except KeyError:
            raise _not_member(client) from None
        self._store(slot, 0.0)
        self._clients[slot] = None
        del self._slot_of[client]
        self._free_slots.append(slot)

    def __contains__(self, client: object) -> bool:
        return client in self._slot_of

    def __len__(self) -> int:
        return len(self._slot_of)

    # -- values ------------------------------------------------------------------

    def set_value(self, client: ClientT, value: float) -> None:
        """Update a client's ticket value (no-op if unchanged).

        Skipping an identical value is bit-exact: every Fenwick node is
        recomputed from the stored values (see :meth:`_fenwick_refresh`),
        so an update that does not change ``_values`` cannot change any
        node either.
        """
        if not 0 <= value < _INF:
            raise _bad_value(client, value)
        try:
            slot = self._slot_of[client]
        except KeyError:
            raise _not_member(client) from None
        if self._values[slot] != value:
            self._store(slot, value)

    def value_of(self, client: ClientT) -> float:
        """Current stored value for a client."""
        try:
            return self._values[self._slot_of[client]]
        except KeyError:
            raise _not_member(client) from None

    def total(self) -> float:
        """Sum of all clients' stored values."""
        slot = self._lag_slot
        if slot >= 0:  # settle first (see _store)
            self._lag_slot = -1
            if self._values[slot] != self._lag_value:
                self._fenwick_refresh(slot)
        tree = self._tree
        total = 0.0
        index = len(self._values)
        while index > 0:
            total += tree[index]
            index -= index & -index
        return total

    # -- drawing -------------------------------------------------------------------

    def draw(self, prng: ParkMillerPRNG) -> ClientT:
        """Hold one lottery; O(log n) additions and comparisons."""
        total = self.total()
        if total <= 0:
            raise EmptyLotteryError("lottery held with zero total funding")
        winning = prng.uniform() * total
        slot, levels = self._find_prefix(winning)
        self.stats.draws += 1
        self.stats.comparisons += levels
        try:
            client = self._clients[slot]
        except IndexError:
            # A subnormal total can round ``winning`` up to the total
            # itself; the descent then runs past the last slot.
            client = None
        if client is None or self._values[slot] <= 0:
            # Float-boundary fallback: scan for the last funded slot.
            for index in range(len(self._values) - 1, -1, -1):
                if self._clients[index] is not None and self._values[index] > 0:
                    client = self._clients[index]
                    break
        assert client is not None
        return client

    def snapshot_state(self, key: Callable[[ClientT], object] = repr) -> dict:
        """Typed state tree for checkpointing (see ``repro.checkpoint``).

        Slot layout matters: the Fenwick descent visits slots in index
        order, so slot assignment and the free-slot stack are captured
        alongside the stored values.  ``key`` maps clients to
        serializable ids.
        """
        return {
            "slots": [
                {
                    "client": None if client is None else key(client),
                    "value": self._values[slot],
                }
                for slot, client in enumerate(self._clients)
            ],
            "free_slots": list(self._free_slots),
            "total": self.total(),
            "draws": self.stats.draws,
            "comparisons": self.stats.comparisons,
        }

    def audit(self) -> List[str]:
        """Fenwick nodes that are not the sum they stand for.

        Every node must equal its own slot's value plus its child
        nodes, the lagging slot counted at the value the nodes still
        reflect.  Reads only -- an audit that settled would hide the
        reader that forgot to.  O(n).
        """
        tree = self._tree
        values = self._values
        lag_slot = self._lag_slot
        violations: List[str] = []
        for index in range(1, len(tree)):
            slot = index - 1
            node = self._lag_value if slot == lag_slot else values[slot]
            low = index & -index
            step = 1
            while step < low:
                node += tree[index - step]
                step <<= 1
            if tree[index] != node:
                lagging = ("" if lag_slot < 0 else
                           f" (slot {lag_slot} lags at {self._lag_value!r})")
                violations.append(
                    f"Fenwick node {index} holds {tree[index]!r} but slot "
                    f"{slot} and its child nodes sum to {node!r}{lagging}"
                )
        return violations

    # -- Fenwick internals -----------------------------------------------------------

    def _store(self, slot: int, value: float) -> None:
        """Write one slot's value; the nodes above it catch up when the
        next write to another slot, or :meth:`total`, settles them.

        Settling refreshes above the lagging slot, unless it holds the
        value the nodes already reflect.
        """
        lag_slot = self._lag_slot
        if slot != lag_slot:
            if lag_slot >= 0 and self._values[lag_slot] != self._lag_value:
                self._fenwick_refresh(lag_slot)
            self._lag_slot = slot
            self._lag_value = self._values[slot]
        self._values[slot] = value

    def _fenwick_refresh(self, slot: int) -> None:
        """Recompute the nodes covering ``slot`` from current values.

        Propagating signed deltas (the textbook Fenwick update) leaves
        float cancellation residue behind once large values are removed
        -- the tree's total would drift away from the sum of the
        surviving values.  Recomputing each affected node bottom-up
        (own value + child nodes, lowest child first) keeps every node
        a fresh sum of *current* values, at O(log^2 n) per refresh.
        This is the one place a node above a slot is rewritten, and
        only a settle and the append in :meth:`add` come here.
        """
        tree = self._tree
        values = self._values
        size = len(tree)
        index = slot + 1
        while index < size:
            low = index & -index
            node = values[index - 1]
            step = 1
            while step < low:
                node += tree[index - step]
                step <<= 1
            tree[index] = node
            index += low

    def _find_prefix(self, target: float) -> Tuple[int, int]:
        """Smallest slot whose prefix sum exceeds ``target``.

        Returns ``(slot, levels_descended)``; the descent is the tree
        traversal of paper Figure 1 generalized to partial sums.
        """
        tree = self._tree
        size = len(tree)
        index = 0
        levels = 0
        bit = 1 << (size - 1).bit_length() >> 1  # top power of two <= n
        while bit:
            nxt = index + bit
            if nxt < size:
                levels += 1
                node = tree[nxt]
                if node <= target:
                    target -= node
                    index = nxt
            bit >>= 1
        return index, max(levels, 1)  # slot is `index` (0-based slot = index)
