"""Tests for the lottery draw structures (paper section 4.2, Figure 1)."""

from collections import Counter

import pytest

from repro.core.lottery import ListLottery, TreeLottery, hold_lottery
from repro.errors import EmptyLotteryError, SchedulerError


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
        with pytest.raises(SchedulerError):
            hold_lottery([("a", -1.0)], prng)

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
