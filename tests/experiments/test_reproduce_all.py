"""Tests for the one-shot reproduction driver."""

from repro.experiments import reproduce_all


class TestChecks:
    def test_check_registry_covers_all_figures(self):
        labels = [label for label, _ in reproduce_all.CHECKS]
        for figure in ("Figure 1", "Figure 4", "Figure 5", "Figure 6",
                       "Figure 7", "Figure 8", "Figure 9", "Figure 11"):
            assert any(label.startswith(figure) for label in labels)
        assert any(label.startswith("Sec. 5.6") for label in labels)
        assert len(labels) == 21

    def test_individual_cheap_checks_pass(self):
        ok, detail = reproduce_all._fig1(quick=True)
        assert ok and "client 3" in detail
        ok, detail = reproduce_all._stride(quick=True)
        assert ok
        ok, detail = reproduce_all._diverse(quick=True)
        assert ok

    def test_reproduce_reports_failures_without_raising(self, monkeypatch,
                                                        capsys):
        # Patch in one passing and one crashing check: the driver must
        # survive and count the failure.
        monkeypatch.setattr(
            reproduce_all, "CHECKS",
            [
                ("ok", lambda quick: (True, "fine")),
                ("boom", lambda quick: (_ for _ in ()).throw(
                    RuntimeError("nope"))),
            ],
        )
        failures = reproduce_all.reproduce(quick=True)
        out = capsys.readouterr().out
        assert failures == 1
        assert "[PASS] ok" in out
        assert "[FAIL] boom" in out
        assert "1/2" in out
