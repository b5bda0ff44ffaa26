"""Tests for the Figure 1 walkthrough experiment."""

import pytest

from repro.errors import ExperimentError
from repro.experiments import fig1_walkthrough
from tests.conftest import report_sha


class TestWalk:
    def test_paper_example_exactly(self):
        winner, rows = fig1_walkthrough.walk()
        assert winner == 2  # third client
        assert [r["running_sum"] for r in rows] == [10, 12, 17, 18, 20]
        assert [r["sum > winning?"] for r in rows] == (
            ["no", "no", "yes", "yes", "yes"]
        )

    @pytest.mark.parametrize(
        "winning,expected",
        [(0.0, 0), (9.9, 0), (10.0, 1), (11.9, 1), (12.0, 2), (16.9, 2),
         (17.0, 3), (18.0, 4), (19.9, 4)],
    )
    def test_interval_boundaries(self, winning, expected):
        winner, _ = fig1_walkthrough.walk(winning=winning)
        assert winner == expected

    def test_out_of_range_winning_value_rejected(self):
        with pytest.raises(ExperimentError):
            fig1_walkthrough.walk(winning=20.0)
        with pytest.raises(ExperimentError):
            fig1_walkthrough.walk(winning=-1.0)


class TestRun:
    def test_frequencies_match_shares(self):
        result = fig1_walkthrough.run(draws=50_000)
        assert report_sha(result) == "9c0a1827206a387f"
        assert result.measures["winner"] == 3
        for rate, tickets in zip(result.measures["win_rate"],
                                 fig1_walkthrough.FIGURE1_TICKETS):
            assert rate == pytest.approx(tickets / 20.0, abs=0.01)
