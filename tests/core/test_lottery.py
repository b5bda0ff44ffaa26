"""Tests for the lottery draw structures (paper section 4.2, Figure 1)."""

import copy
import itertools
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.lottery import DrawStats, ListLottery, TreeLottery, hold_lottery
from repro.core.prng import ParkMillerPRNG
from repro.errors import EmptyLotteryError, SchedulerError

_BAD_VALUES = [float("nan"), float("inf"), float("-inf"), -1.0]


def draw_distribution(draw, n):
    return Counter(draw() for _ in range(n))


class TestHoldLottery:
    def test_single_client_always_wins(self, prng):
        assert hold_lottery([("only", 5.0)], prng) == "only"

    def test_zero_value_client_never_wins(self, prng):
        wins = draw_distribution(
            lambda: hold_lottery([("a", 10.0), ("b", 0.0)], prng), 2000
        )
        assert wins["b"] == 0

    def test_empty_total_raises(self, prng):
        with pytest.raises(EmptyLotteryError):
            hold_lottery([("a", 0.0), ("b", 0.0)], prng)

    def test_negative_value_raises(self, prng):
        # NaN used to pass ``value < 0`` and hand the lottery to the
        # last funded client; the PRNG is not consulted on a refusal.
        for value in _BAD_VALUES:
            with pytest.raises(SchedulerError, match="'b'.*finite"):
                hold_lottery([("a", 1.0), ("b", value)], prng)
        assert prng.state == 12345

    def test_proportions_match_figure1_example(self, prng):
        # Figure 1's five clients with 10/2/5/1/2 of 20 total tickets.
        entries = [("c1", 10.0), ("c2", 2.0), ("c3", 5.0), ("c4", 1.0),
                   ("c5", 2.0)]
        n = 40_000
        wins = draw_distribution(lambda: hold_lottery(entries, prng), n)
        for client, tickets in entries:
            expected = tickets / 20.0
            assert wins[client] / n == pytest.approx(expected, abs=0.02)


class TestListLottery:
    def make(self, values, **kwargs):
        if kwargs.get("keep_sorted"):
            kwargs.setdefault("move_to_front", False)
        lottery = ListLottery(value_of=values.__getitem__, **kwargs)
        for client in values:
            lottery.add(client)
        return lottery

    def test_membership_protocol(self):
        values = {"a": 1.0}
        lottery = self.make(values)
        assert "a" in lottery
        assert len(lottery) == 1
        lottery.remove("a")
        assert "a" not in lottery
        with pytest.raises(SchedulerError):
            lottery.remove("a")

    def test_double_add_rejected(self):
        lottery = self.make({"a": 1.0})
        with pytest.raises(SchedulerError):
            lottery.add("a")

    def test_draw_empty_raises(self, prng):
        lottery = ListLottery(value_of=lambda c: 1.0)
        with pytest.raises(EmptyLotteryError):
            lottery.draw(prng)

    def test_draw_zero_funding_raises(self, prng):
        lottery = self.make({"a": 0.0, "b": 0.0})
        with pytest.raises(EmptyLotteryError):
            lottery.draw(prng)

    def test_proportional_wins(self, prng):
        values = {"a": 3.0, "b": 1.0}
        lottery = self.make(values)
        n = 20_000
        wins = draw_distribution(lambda: lottery.draw(prng), n)
        assert wins["a"] / n == pytest.approx(0.75, abs=0.02)

    def test_values_reread_every_draw(self, prng):
        values = {"a": 1.0, "b": 0.0}
        lottery = self.make(values)
        assert lottery.draw(prng) == "a"
        values["a"], values["b"] = 0.0, 1.0
        assert lottery.draw(prng) == "b"

    def test_move_to_front_promotes_winner(self, prng):
        values = {"a": 1.0, "b": 1000.0, "c": 1.0}
        lottery = self.make(values, move_to_front=True)
        for _ in range(20):
            lottery.draw(prng)
        assert lottery.clients()[0] == "b"

    def test_move_to_front_shortens_search(self, prng):
        # A heavily skewed population: with move-to-front the dominant
        # client migrates to the head, so average search length drops
        # well below the no-heuristic baseline.
        values = {f"c{i}": 1.0 for i in range(20)}
        values["hog"] = 1000.0
        plain = self.make(values, move_to_front=False)
        mtf = self.make(dict(values), move_to_front=True)
        by_value = self.make(dict(values), keep_sorted=True)
        for _ in range(2000):
            plain.draw(prng)
            mtf.draw(prng)
            by_value.draw(prng)
        assert (
            mtf.stats.average_search_length()
            < plain.stats.average_search_length() / 2
        )
        # The paper's other list heuristic (decreasing ticket order)
        # finds the dominant client first as well.
        assert (
            by_value.stats.average_search_length()
            < plain.stats.average_search_length() / 2
        )

    def test_keep_sorted_orders_by_value(self, prng):
        values = {"small": 1.0, "big": 50.0, "mid": 10.0}
        lottery = self.make(values, keep_sorted=True)
        lottery.draw(prng)
        assert lottery.clients() == ["big", "mid", "small"]

    def test_sorted_and_mtf_mutually_exclusive(self):
        with pytest.raises(SchedulerError):
            ListLottery(value_of=lambda c: 1.0, move_to_front=True,
                        keep_sorted=True)

    def test_total(self):
        lottery = self.make({"a": 2.5, "b": 4.5})
        assert lottery.total() == pytest.approx(7.0)

    def test_stats_reset(self, prng):
        lottery = self.make({"a": 1.0})
        lottery.draw(prng)
        assert lottery.stats.draws == 1
        lottery.stats.reset()
        assert lottery.stats.draws == 0
        assert lottery.stats.average_search_length() == 0.0


class TestTreeLottery:
    def make(self, values):
        lottery = TreeLottery()
        for client, value in values.items():
            lottery.add(client, value)
        return lottery

    def test_membership_protocol(self):
        lottery = self.make({"a": 1.0})
        assert "a" in lottery
        assert len(lottery) == 1
        lottery.remove("a")
        assert "a" not in lottery
        with pytest.raises(SchedulerError):
            lottery.remove("a")

    def test_double_add_rejected(self):
        lottery = self.make({"a": 1.0})
        with pytest.raises(SchedulerError):
            lottery.add("a", 2.0)

    def test_negative_value_rejected(self):
        lottery = TreeLottery()
        with pytest.raises(SchedulerError):
            lottery.add("a", -1.0)
        lottery.add("a", 1.0)
        with pytest.raises(SchedulerError):
            lottery.set_value("a", -2.0)
        # NaN used to pass ``value < 0`` and poison every later total;
        # ``inf`` made the descent run off the end of the slot table.
        before = repr(lottery.snapshot_state())
        for value in _BAD_VALUES:
            with pytest.raises(SchedulerError, match="'b'.*finite.*got"):
                lottery.add("b", value)
            with pytest.raises(SchedulerError, match="'a'.*finite.*got"):
                lottery.set_value("a", value)
        assert "b" not in lottery
        assert repr(lottery.snapshot_state()) == before

    def test_subnormal_total_never_runs_past_the_last_slot(self, prng):
        # ``uniform() * 5e-324`` rounds to 5e-324 for every draw >= 0.5,
        # a winning value equal to the total.
        lottery = self.make({"a": 0.0, "b": 5e-324, "c": 0.0})
        assert {lottery.draw(prng) for _ in range(64)} == {"b"}

    def test_total_tracks_updates(self):
        lottery = self.make({"a": 5.0, "b": 3.0})
        assert lottery.total() == pytest.approx(8.0)
        lottery.set_value("a", 1.0)
        assert lottery.total() == pytest.approx(4.0)
        lottery.remove("b")
        assert lottery.total() == pytest.approx(1.0)

    def test_proportional_wins(self, prng):
        values = {"a": 1.0, "b": 2.0, "c": 7.0}
        lottery = self.make(values)
        n = 30_000
        wins = draw_distribution(lambda: lottery.draw(prng), n)
        for client, value in values.items():
            assert wins[client] / n == pytest.approx(value / 10.0, abs=0.02)

    def test_zero_valued_client_never_wins(self, prng):
        lottery = self.make({"a": 0.0, "b": 5.0})
        wins = draw_distribution(lambda: lottery.draw(prng), 2000)
        assert wins["a"] == 0

    def test_empty_raises(self, prng):
        lottery = TreeLottery()
        with pytest.raises(EmptyLotteryError):
            lottery.draw(prng)

    def test_slot_recycling(self, prng):
        lottery = self.make({"a": 1.0, "b": 1.0})
        lottery.remove("a")
        lottery.add("c", 3.0)  # reuses a's slot
        assert lottery.value_of("c") == 3.0
        wins = draw_distribution(lambda: lottery.draw(prng), 8000)
        assert wins["c"] / 8000 == pytest.approx(0.75, abs=0.03)

    def test_matches_list_lottery_distribution(self, prng):
        values = {f"c{i}": float(i + 1) for i in range(12)}
        tree = self.make(values)
        list_lottery = ListLottery(value_of=values.__getitem__,
                                   move_to_front=False)
        for client in values:
            list_lottery.add(client)
        n = 30_000
        tree_wins = draw_distribution(lambda: tree.draw(prng), n)
        list_wins = draw_distribution(lambda: list_lottery.draw(prng), n)
        total = sum(values.values())
        for client, value in values.items():
            expected = value / total
            assert tree_wins[client] / n == pytest.approx(expected, abs=0.02)
            assert list_wins[client] / n == pytest.approx(expected, abs=0.02)

    def test_logarithmic_search_depth(self, prng):
        lottery = TreeLottery()
        count = 1024
        for i in range(count):
            lottery.add(f"c{i}", 1.0)
        for _ in range(200):
            lottery.draw(prng)
        # lg(1024) = 10 levels, far below the list lottery's ~n/2.
        assert lottery.stats.average_search_length() <= 12


# -- the deferred settle against the tree it replaced --------------------------


class _EagerTree:
    """``TreeLottery`` before the deferred settle, kept whole as the
    reference: every write refreshes the nodes above its slot at once."""

    def __init__(self):
        self._tree = [0.0]  # 1-indexed Fenwick array
        self._values = []  # slot -> value
        self._clients = []  # slot -> client
        self._slot_of = {}
        self._free_slots = []
        self.stats = DrawStats()

    def add(self, client, value):
        if client in self._slot_of:
            raise SchedulerError(f"client {client!r} already in lottery")
        if value < 0:
            raise SchedulerError(f"negative lottery value {value!r}")
        if self._free_slots:
            slot = self._free_slots.pop()
            self._clients[slot] = client
            self._slot_of[client] = slot
            self._values[slot] = value
            self._fenwick_refresh(slot)
        else:
            slot = len(self._values)
            self._values.append(0.0)
            self._clients.append(client)
            self._tree.append(0.0)
            self._rebuild_tail(slot)
            self._slot_of[client] = slot
            self._values[slot] = value
            self._fenwick_refresh(slot)

    def remove(self, client):
        slot = self._require_slot(client)
        self._values[slot] = 0.0
        self._fenwick_refresh(slot)
        self._clients[slot] = None
        del self._slot_of[client]
        self._free_slots.append(slot)

    def __contains__(self, client):
        return client in self._slot_of

    def __len__(self):
        return len(self._slot_of)

    def set_value(self, client, value):
        if value < 0:
            raise SchedulerError(f"negative lottery value {value!r}")
        slot = self._require_slot(client)
        if self._values[slot] == value:
            return
        self._values[slot] = value
        self._fenwick_refresh(slot)

    def value_of(self, client):
        return self._values[self._require_slot(client)]

    def total(self):
        return self._prefix_sum(len(self._values))

    def draw(self, prng):
        total = self.total()
        if total <= 0:
            raise EmptyLotteryError("lottery held with zero total funding")
        winning = prng.uniform() * total
        slot, levels = self._find_prefix(winning)
        self.stats.draws += 1
        self.stats.comparisons += levels
        client = self._clients[slot] if slot < len(self._clients) else None
        if client is None or self._values[slot] <= 0:
            # Float-boundary fallback: scan for the last funded slot.
            for index in range(len(self._values) - 1, -1, -1):
                if self._clients[index] is not None and self._values[index] > 0:
                    client = self._clients[index]
                    break
        assert client is not None
        return client

    def snapshot_state(self, key=repr):
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

    def _require_slot(self, client):
        try:
            return self._slot_of[client]
        except KeyError:
            raise SchedulerError(f"client {client!r} not in lottery") from None

    def _node_sum(self, index):
        low = index & -index
        node = self._values[index - 1]
        step = 1
        while step < low:
            node += self._tree[index - step]
            step <<= 1
        return node

    def _fenwick_refresh(self, slot):
        index = slot + 1
        while index < len(self._tree):
            self._tree[index] = self._node_sum(index)
            index += index & -index

    def _prefix_sum(self, count):
        total = 0.0
        index = count
        while index > 0:
            total += self._tree[index]
            index -= index & -index
        return total

    def _rebuild_tail(self, slot):
        self._tree[slot + 1] = self._node_sum(slot + 1)

    def _find_prefix(self, target):
        index = 0
        levels = 0
        bit = 1
        while bit * 2 <= len(self._tree) - 1:
            bit *= 2
        remaining = target
        while bit > 0:
            nxt = index + bit
            if nxt < len(self._tree):
                levels += 1
                if self._tree[nxt] <= remaining:
                    remaining -= self._tree[nxt]
                    index = nxt
            bit //= 2
        return index, max(levels, 1)


_CLIENTS = "abcdefghij"

#: Side by side: ints (an unfunded holder stores int ``0``, and the
#: canonical JSON of a state tree tells ``0`` from ``0.0``), both zeros,
#: dyadic floats, compensation-style products that are not, and
#: magnitudes 1e-3 .. 1e12 -- the cancellation case ``_fenwick_refresh``
#: recomputes instead of propagating deltas for.  Few enough that
#: "rewritten with the value it had" happens by chance too.
_VALUES = st.one_of(
    st.sampled_from([0, 1, 7, 0.0, -0.0, 0.25, 1.0, 100.0, 1024.0,
                     100 * 10 / 7, 400 * 10 / 3, 0.1 + 0.2,
                     1e-3, 1e12, 1e12 + 0.5, 3.3e6]),
    st.floats(min_value=0.0, max_value=1e12, allow_nan=False),
)

_client = st.sampled_from(_CLIENTS)

#: Primitive calls, plus the write patterns the deferral exists for,
#: spelled out so that every example holds several: a client removed
#: and re-added (same value / another), its slot recycled by a
#: different client, a value changed and changed back before any read.
_OPS = st.lists(st.one_of(
    st.tuples(st.just("add"), _client, _VALUES),
    st.tuples(st.just("remove"), _client),
    st.tuples(st.just("set"), _client, _VALUES),
    st.tuples(st.sampled_from(["draw", "total", "snapshot", "len"])),
    st.tuples(st.sampled_from(["value_of", "in"]), _client),
    st.tuples(st.just("readd"), _client, st.none() | _VALUES),
    st.tuples(st.just("recycle"), _client, _client, st.none() | _VALUES),
    st.tuples(st.just("set_back"), _client, _VALUES),
), max_size=60)


def _expand(op, reference):
    """The primitive calls of one generated op (``None`` value: the one
    the client holds now, read off the reference)."""
    kind = op[0]
    if kind in ("readd", "recycle", "set_back"):
        client = op[1]
        if client not in reference:
            return [("remove", client)]  # refused alike
        held = reference.value_of(client)
        value = held if op[-1] is None else op[-1]
        if kind == "readd":
            return [("remove", client), ("add", client, value)]
        if kind == "recycle":
            return [("remove", client), ("add", op[2], value)]
        return [("set", client, value), ("set", client, held)]
    return [op]


def _call(tree, prng, op):
    """One primitive call: its result, or the refusal it raised."""
    kind, args = op[0], op[1:]
    try:
        if kind == "add":
            return tree.add(*args)
        if kind == "remove":
            return tree.remove(*args)
        if kind == "set":
            return tree.set_value(*args)
        if kind == "draw":
            return tree.draw(prng)
        if kind == "total":
            return repr(tree.total())
        if kind == "snapshot":
            return repr(tree.snapshot_state())
        if kind == "len":
            return len(tree)
        if kind == "value_of":
            return repr(tree.value_of(*args))
        assert kind == "in", kind
        return args[0] in tree
    except (SchedulerError, EmptyLotteryError) as exc:
        return type(exc).__name__, str(exc)


def _observed(tree):
    """Everything a reader could see, read off a copy: the snapshot
    settles, and reading it off the tree under test after every op
    would leave no write deferred past the op that made it."""
    return repr(copy.deepcopy(tree).snapshot_state())


class TestDeferredSettleDifferential:
    @settings(max_examples=400, deadline=None)
    @given(start=st.lists(_VALUES, max_size=len(_CLIENTS)), ops=_OPS,
           seed=st.integers(1, 2**31 - 2))
    def test_every_reader_sees_what_the_eager_tree_showed(self, start, ops,
                                                          seed):
        old, new = _EagerTree(), TreeLottery()
        old_prng, new_prng = ParkMillerPRNG(seed), ParkMillerPRNG(seed)
        # Most ops should land on members: start from a population.
        ops = [("add", client, value)
               for client, value in zip(_CLIENTS, start)] + ops
        for step, generated in enumerate(ops):
            for op in _expand(generated, old):
                assert _call(new, new_prng, op) == _call(old, old_prng, op), \
                    (step, op)
                assert _observed(new) == _observed(old), (step, op)
                assert new.audit() == [], (step, op)
        assert new_prng.state == old_prng.state

    def test_signed_zero_and_int_zero_are_the_value_a_slot_had(self):
        """``-0.0 == 0.0 == 0``: a slot rewritten from one to another
        skips its refresh, so a node may keep the other zero than the
        eager tree's.  No reader can tell (totals start from ``0.0``;
        the descent compares and subtracts), and the stored value --
        which the state tree does show -- is always the one written."""
        for first, second in itertools.permutations([0, 0.0, -0.0], 2):
            old, new = _EagerTree(), TreeLottery()
            prngs = ParkMillerPRNG(3), ParkMillerPRNG(3)
            for tree in (old, new):
                tree.add("a", first)
                tree.add("b", 2.5)
                tree.total()
                tree.remove("a")
                tree.add("c", second)
            assert repr(new.value_of("c")) == repr(second)
            assert _observed(new) == _observed(old)
            assert new.draw(prngs[1]) == old.draw(prngs[0]) == "b"
            assert new.audit() == []

    def test_an_append_over_a_lagging_slot_settles_with_it(self):
        """The appended node sums child nodes that still reflect the old
        value; it lies on the lagging slot's path, so the one refresh
        that settles the slot recomputes it too."""
        old, new = _EagerTree(), TreeLottery()
        for tree in (old, new):
            for index, value in enumerate([1e12, 0.1, 3.0]):
                tree.add(index, value)
            tree.total()
            tree.set_value(0, 1e-3)  # lags: nodes 1, 2 (and soon 4)
            tree.add(3, 0.7)  # node 4 = 0.7 + node 3 + node 2
        assert new._lag_slot == 0 and new.audit() == []
        assert repr(new.total()) == repr(old.total())
        assert new._tree == old._tree  # settled: node for node


class TestSettleWorkCount:
    """Deterministic facts about the deferral, no wall clock."""

    @pytest.fixture
    def lottery(self, refreshes):
        lottery = TreeLottery()
        for index in range(1024):
            lottery.add(index, float(1 + index % 13))
        lottery.total()
        refreshes.clear()
        return lottery

    def test_readd_with_the_value_it_had_costs_nothing(self, lottery,
                                                       refreshes):
        held = lottery.value_of(500)
        lottery.remove(500)
        lottery.add(500, held)
        lottery.total()
        assert refreshes == []

    def test_readd_with_another_value_costs_one(self, lottery, refreshes):
        lottery.remove(500)
        lottery.add(500, 99.0)
        assert refreshes == []  # not at the write ...
        lottery.total()
        assert refreshes == [500]  # ... at the read, once for both

    def test_a_different_client_recycling_the_slot_costs_nothing(
            self, lottery, refreshes):
        held = lottery.value_of(500)
        lottery.remove(500)
        lottery.add("other", held)
        lottery.total()
        assert refreshes == []

    def test_a_write_elsewhere_settles_the_slot_that_lagged(self, lottery,
                                                            refreshes):
        lottery.remove(3)
        lottery.remove(700)
        assert refreshes == [3] and lottery._lag_slot == 700
        lottery.total()
        assert refreshes == [3, 700]

    def test_a_value_set_and_set_back_costs_nothing(self, lottery,
                                                    refreshes):
        held = lottery.value_of(500)
        lottery.set_value(500, 99.0)
        lottery.set_value(500, held)
        lottery.total()
        assert refreshes == []

    def test_a_grant_revoked_before_the_next_draw_costs_nothing(
            self, lottery, refreshes, prng):
        lottery.draw(prng)
        held = lottery.value_of(8)
        lottery.set_value(8, 1e6)
        lottery.set_value(8, held)
        lottery.draw(prng)
        assert refreshes == []


class TestAudit:
    def make(self):
        lottery = TreeLottery()
        for index, value in enumerate([5.0, 3.0, 0.5, 8.0, 1.0, 2.0]):
            lottery.add(index, value)
        return lottery

    def test_audit_counts_the_lagging_slot_at_the_value_the_nodes_hold(self):
        lottery = self.make()
        lottery.set_value(2, 40.0)
        assert lottery._lag_slot == 2
        assert lottery.audit() == []
        assert lottery._lag_slot == 2  # and did not settle to find out
        assert lottery.total() == 59.0 and lottery.audit() == []

    def test_audit_names_a_node_that_is_not_its_sum(self):
        lottery = self.make()
        lottery.total()
        lottery._tree[4] -= 0.5
        (violation,) = lottery.audit()
        assert violation.startswith("Fenwick node 4 holds 16.0 but")

    def test_audit_catches_a_write_that_never_reached_the_nodes(self):
        lottery = self.make()
        lottery._values[1] = 4.0  # behind _store's back: nothing lags
        assert any("Fenwick node 2" in found for found in lottery.audit())
