"""The serving_tail experiment: verdict logic and byte-stable reports."""

from __future__ import annotations

import pytest

from repro.experiments import serving_tail


class TestOrderingPredicate:
    def test_ordered_with_spread(self):
        ordered = {"gold": 10.0, "silver": 20.0, "bronze": 40.0}
        assert serving_tail._ordered_with_spread(ordered)

    def test_inversion_fails(self):
        inverted = {"gold": 40.0, "silver": 20.0, "bronze": 10.0}
        assert not serving_tail._ordered_with_spread(inverted)

    def test_flat_tails_fail_the_spread(self):
        flat = {"gold": 15.0, "silver": 15.0, "bronze": 16.0}
        assert not serving_tail._ordered_with_spread(flat)


class TestExperiment:
    def test_quick_run_passes_and_reports_byte_identically(self):
        """Two in-process same-seed runs render the exact same bytes --
        the property the CI serving-smoke step cmp's from the shell."""
        first = serving_tail.run(quick=True, requests=80)
        second = serving_tail.run(quick=True, requests=80)
        assert first.summary["verdict"] == "PASS"
        assert serving_tail.report_text(first) \
            == serving_tail.report_text(second)

    def test_summary_separates_the_policies(self):
        result = serving_tail.run(quick=True, requests=80)
        summary = result.summary
        assert summary["lottery wake-p99 share-ordered at 1.5x"] == "yes"
        assert summary["timesharing wake-p99 share-ordered at 1.5x"] == "no"
        assert summary["slo bronze recovery epoch"] != "never"
        assert summary["sharded backends agree"] == "yes"
        # policy x load x class sweep rows are all present
        assert len(result.rows) == len(serving_tail.POLICIES) \
            * len(serving_tail.LOADS) * 3

    def test_report_embeds_shard_checksums(self):
        result = serving_tail.run(quick=True, requests=80)
        text = serving_tail.report_text(result)
        for row in result.measures["shard_rows"]:
            assert row["stream_sha"] in text
            assert row["state_sha"] in text
        assert text.endswith("\n")


class TestCommandLine:
    @pytest.mark.parametrize("requests", ["-3", "0", "2.5"])
    def test_requests_must_be_a_positive_int(self, requests, capsys):
        with pytest.raises(SystemExit) as exited:
            serving_tail.main(["--requests", requests])
        assert exited.value.code == 2
        assert "--requests: expected a positive integer" \
            in capsys.readouterr().err
