"""Tests for the one-shot reproduction driver."""

import math
import sys

import pytest

from repro.errors import ExperimentError
from repro.experiments import reproduce_all
from repro.experiments.common import ExperimentResult


class TestChecks:
    def test_check_registry_covers_all_figures(self):
        labels = [check.label for check in reproduce_all.CHECKS]
        for figure in ("Figure 1", "Figure 4", "Figure 5", "Figure 6",
                       "Figure 7", "Figure 8", "Figure 9", "Figure 11"):
            assert any(label.startswith(figure) for label in labels)
        assert any(label.startswith("Sec. 5.6") for label in labels)
        assert len(labels) == 21

    def test_individual_cheap_checks_pass(self):
        checks = {check.label.split()[-1]: check
                  for check in reproduce_all.CHECKS}
        ok, detail = checks["walkthrough"](quick=True)
        assert ok and detail.startswith("client 3 ")
        ok, detail = checks["determinism"](quick=True)
        assert ok
        ok, detail = checks["lotteries"](quick=True)
        assert ok

    def test_reproduce_reports_failures_without_raising(self, monkeypatch,
                                                        capsys):
        # Patch in one passing and one crashing check: the driver must
        # survive and count the failure.
        def boom():
            raise RuntimeError("nope")

        monkeypatch.setattr(
            reproduce_all, "CHECKS",
            [
                reproduce_all.Check(
                    "ok", lambda: ExperimentResult("ok", measures={"x": 1}),
                    {}, {}, lambda m: m["x"] == 1, "fine".format_map),
                reproduce_all.Check("boom", boom, {}, {}, bool, str),
            ],
        )
        failures = reproduce_all.reproduce(quick=True)
        out = capsys.readouterr().out
        assert failures == 1
        assert "[PASS] ok" in out
        assert "[FAIL] boom" in out
        assert "1/2" in out


class TestCheckpointSweep:
    @pytest.mark.parametrize("every_ms", [math.inf, math.nan, 0.0, -1.0])
    def test_refuses_a_period_that_is_not_finite_and_positive(self,
                                                               every_ms):
        with pytest.raises(ExperimentError, match="every_ms"):
            reproduce_all.checkpoint_sweep(every_ms, duration_ms=1_000.0)

    @pytest.mark.parametrize("every_ms", [1_000.0, 5_000.0])
    def test_a_sweep_with_no_cycle_fails(self, every_ms):
        ok, detail = reproduce_all.checkpoint_sweep(every_ms,
                                                    duration_ms=1_000.0)
        assert not ok
        assert detail.startswith("0 crash/restore cycles")

    @pytest.mark.parametrize("value", ["inf", "nan", "0", "-500", "soon"])
    def test_cli_flag_wants_a_finite_positive_time(self, value, monkeypatch,
                                                   capsys):
        ran = []
        monkeypatch.setattr(reproduce_all, "reproduce",
                            lambda **kwargs: ran.append(kwargs) or 0)
        monkeypatch.setattr(sys, "argv",
                            ["reproduce_all", "--checkpoint-every", value])
        with pytest.raises(SystemExit) as exit_info:
            reproduce_all.main()
        assert exit_info.value.code == 2 and ran == []
        assert "--checkpoint-every" in capsys.readouterr().err

    def test_cli_flag_passes_a_good_period_through(self, monkeypatch):
        ran = []
        monkeypatch.setattr(reproduce_all, "reproduce",
                            lambda **kwargs: ran.append(kwargs) or 0)
        monkeypatch.setattr(sys, "argv",
                            ["reproduce_all", "--checkpoint-every", "10000"])
        with pytest.raises(SystemExit) as exit_info:
            reproduce_all.main()
        assert exit_info.value.code == 0
        assert ran[0]["checkpoint_every"] == 10_000.0
