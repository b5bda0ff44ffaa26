"""The ``python -m repro.checkpoint`` smoke CLI and the horizons it
hands to a recipe."""

import pytest

from repro.checkpoint import build_recipe
from repro.checkpoint.__main__ import main
from repro.errors import CheckpointError


@pytest.mark.parametrize("until", [float("nan"), float("inf"), "100"])
def test_advance_refuses_a_horizon_that_is_not_a_finite_number(until):
    """NaN passes the backwards check and inf is never reached: both
    used to run forever."""
    handle = build_recipe("lottery-mix", {"seed": 1})
    with pytest.raises(CheckpointError, match="'until' must be a finite"):
        handle.advance(until)
    assert handle.now == 0.0


def test_round_trip_passes(capsys):
    assert main(["--checkpoint-at", "1000", "--run-until", "2000"]) == 0
    assert "zero divergence" in capsys.readouterr().out


@pytest.mark.parametrize("argv, named", [
    (["--checkpoint-at", "-5"], "--checkpoint-at"),
    (["--checkpoint-at", "nan"], "--checkpoint-at"),
    (["--checkpoint-at", "100", "--run-until", "inf"], "--run-until"),
    (["--run-until", "nan"], "--run-until"),
    (["--run-until", "soon"], "--run-until"),
    (["--checkpoint-at", "2000", "--run-until", "1000"], "before"),
    (["--recipe", "bogus"], "--recipe"),
    (["--recipe", "chaos-fairness", "--checkpoint-at", "100",
      "--run-until", "1000"], "epoch grid"),
])
def test_bad_arguments_are_one_line_usage_errors(argv, named, capsys):
    """Bad times, recipes and horizons a recipe refuses: one usage line
    and exit 2, never a traceback or a run that does not end."""
    with pytest.raises(SystemExit) as caught:
        main(argv)
    assert caught.value.code == 2
    err = capsys.readouterr().err
    assert named in err.splitlines()[-1] and "Traceback" not in err
