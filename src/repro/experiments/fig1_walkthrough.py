"""Figure 1: the list-based lottery, step by step.

The paper's Figure 1 shows five clients holding 10, 2, 5, 1, and 2 of
20 total tickets; the fifteenth ticket is randomly selected, and the
list walk accumulates 10 -> 12 -> 17, stopping at the third client
(sum 17 > 15), which wins.

This module replays that exact walk deterministically (the winning
number is an input, as in the figure) and then verifies the statistics:
over many draws, each client's win frequency matches its ticket share.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

from repro.core.lottery import ListLottery
from repro.core.prng import ParkMillerPRNG
from repro.errors import ExperimentError
from repro.experiments.common import ExperimentResult

__all__ = ["walk", "run", "main"]

#: Figure 1's client ticket holdings, in list order.
FIGURE1_TICKETS = (10.0, 2.0, 5.0, 1.0, 2.0)

#: Figure 1's randomly selected winning number (0-based value 15).
FIGURE1_WINNING = 15.0


def walk(tickets: Sequence[float] = FIGURE1_TICKETS,
         winning: float = FIGURE1_WINNING) -> Tuple[int, List[Dict]]:
    """Replay the Figure 1 list walk for a given winning value.

    Returns the 0-based index of the winner and the per-client trace
    rows (running sum and the comparison the figure annotates).
    """
    total = sum(tickets)
    if not 0 <= winning < total:
        raise ExperimentError(
            f"winning value {winning} outside [0, {total})"
        )
    rows = []
    accumulated = 0.0
    winner = -1
    for index, amount in enumerate(tickets):
        accumulated += amount
        exceeded = accumulated > winning
        rows.append(
            {
                "client": index + 1,
                "tickets": amount,
                "running_sum": accumulated,
                "sum > winning?": "yes" if exceeded else "no",
            }
        )
        if exceeded and winner < 0:
            winner = index
    return winner, rows


def run(draws: int = 100_000, seed: int = 15) -> ExperimentResult:
    """Replay Figure 1 exactly, then check win frequencies."""
    result = ExperimentResult(
        name="Figure 1: list-based lottery walkthrough",
        params={"tickets": list(FIGURE1_TICKETS),
                "winning_value": FIGURE1_WINNING, "draws": draws},
    )
    winner, rows = walk()
    result.rows.extend(rows)
    result.measures["winner"] = winner + 1
    result.summary["winner"] = (
        f"client {winner + 1} (the paper's third client wins on ticket 15)"
    )
    if winner != 2:
        raise ExperimentError("Figure 1 walkthrough diverged from the paper")

    values = dict(enumerate(FIGURE1_TICKETS))
    lottery = ListLottery(value_of=values.__getitem__, move_to_front=False)
    for index in values:
        lottery.add(index)
    prng = ParkMillerPRNG(seed)
    wins = {index: 0 for index in values}
    for _ in range(draws):
        wins[lottery.draw(prng)] += 1
    total = sum(FIGURE1_TICKETS)
    rates = result.measures["win_rate"] = [wins[i] / draws for i in values]
    for index, amount in values.items():
        result.summary[f"client {index + 1} win rate"] = (
            f"{rates[index]:.4f} (expected {amount / total:.4f})"
        )
    return result


def main() -> None:  # pragma: no cover - CLI convenience
    run().print_report()


if __name__ == "__main__":  # pragma: no cover
    main()
