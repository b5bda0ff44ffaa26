"""Shape tests for every experiment driver (reduced-scale runs).

Each test runs the corresponding figure's driver at a fraction of the
paper's duration and asserts the *shape* the paper reports: who wins,
by roughly what factor, and which invariants hold.  The paper-scale
parameters live in ``repro.experiments.reproduce_all`` (``--full``).
"""

import pytest

import repro.experiments as ex
from repro.experiments.common import ExperimentResult, build_machine
from repro.errors import ExperimentError
from tests.conftest import report_sha


class TestCommon:
    def test_build_machine_policies(self):
        for policy in ("lottery", "round-robin", "timesharing", "stride",
                       "fair-share", "fixed-priority", "lottery-tree",
                       "lottery-no-compensation"):
            machine = build_machine(policy=policy)
            assert machine.kernel.policy is machine.policy

    def test_unknown_policy_rejected(self):
        with pytest.raises(ExperimentError):
            build_machine(policy="galactic")

    def test_result_report_prints(self, capsys):
        result = ExperimentResult("demo", params={"x": 1},
                                  rows=[{"a": 1, "b": 2.5}],
                                  summary={"verdict": "ok"})
        result.print_report()
        output = capsys.readouterr().out
        assert "demo" in output
        assert "verdict" in output
        assert "2.500" in output


class TestFig4:
    def test_observed_tracks_allocated(self):
        result = ex.fig4_rate_accuracy.run(
            ratios=[1, 3, 7], runs=2, duration_ms=60_000
        )
        assert report_sha(result) == "e0617534b5056aa1"
        for row in result.rows:
            assert row["observed"] == pytest.approx(row["allocated"],
                                                    rel=0.25)

    def test_single_run_helper(self):
        ratio = ex.fig4_rate_accuracy.run_single(5.0, duration_ms=60_000,
                                                 seed=77)
        assert ratio == pytest.approx(5.0, rel=0.25)
        # The paper's 20:1 x 3-minute check (observed 19.08:1).
        ratio = ex.fig4_rate_accuracy.run_single(20.0, duration_ms=180_000,
                                                 seed=2020)
        assert ratio == pytest.approx(20.0, rel=0.15)


class TestFig5:
    def test_windows_scatter_around_two_to_one(self):
        result = ex.fig5_fairness_over_time.run(duration_ms=100_000,
                                                window_ms=8_000)
        assert report_sha(result) == "57f3b4e5d9b1a85b"
        ratios = [row["ratio"] for row in result.rows]
        assert sum(ratios) / len(ratios) == pytest.approx(2.0, rel=0.2)
        # Randomized allocation: windows must visibly vary.
        assert max(ratios) > 2.1
        assert min(ratios) < 1.9


class TestFig6:
    def test_staggered_tasks_converge(self):
        result = ex.fig6_montecarlo.run(
            duration_ms=240_000, stagger_ms=40_000, sample_every_ms=40_000
        )
        assert report_sha(result) == "be5ac2c02596669a"
        finals = result.measures["final_trials"]
        assert len(finals) == 3
        # Later-started tasks caught most of the way up.
        assert min(finals) > 0.5 * max(finals)
        # All estimates converge to pi/4.
        for estimate in result.measures["estimate"]:
            assert 0.78 <= estimate < 0.79


class TestFig7:
    def test_throughput_and_response_shapes(self):
        result = ex.fig7_query_rates.run(
            duration_ms=300_000, corpus_kb=1000, scan_ms_per_kb=2.0
        )
        assert report_sha(result) == "ac9f81f2d1f99744"
        assert result.measures["bc_ratio"] == pytest.approx(3.0, rel=0.35)
        # Response times are ordered by funding: A < B < C.
        _, b_over_a, c_over_a = result.measures["response_ratio"]
        assert 1.0 < b_over_a < c_over_a
        # Query results are the true planted count.
        assert result.measures["query_results"] == [8]


class TestFig8:
    def test_reallocation_changes_rates(self):
        result = ex.fig8_video_rates.run(duration_ms=200_000)
        assert report_sha(result) == "07291a3017137976"
        b = result.measures["before"]
        a = result.measures["after"]
        # Before: A > B > C; after: A > C > B (3:1:2).
        assert b[0] > b[1] > b[2]
        assert a[0] > a[2] > a[1]


class TestFig9:
    def test_insulation(self):
        result = ex.fig9_load_insulation.run(duration_ms=160_000)
        assert report_sha(result) == "952ddc67ee3334d8"
        assert result.measures["aggregate_ratio"] == pytest.approx(
            1.0, abs=0.15)
        # B tasks slow to about half after B3 starts; A tasks do not.
        factor = result.measures["rate_factor"]
        assert factor["B1"] == pytest.approx(0.5, abs=0.15)
        assert factor["B2"] == pytest.approx(0.5, abs=0.15)
        assert factor["A1"] == pytest.approx(1.0, abs=0.2)
        assert factor["A2"] == pytest.approx(1.0, abs=0.2)


class TestFig11:
    def test_mutex_ratios(self):
        result = ex.fig11_mutex.run(duration_ms=120_000)
        assert report_sha(result) == "e9b0e591f5096429"
        assert 1.4 < result.measures["acquisition_ratio"] < 2.6  # paper: 1.80
        assert 1.4 < result.measures["wait_ratio"] < 3.0  # paper: 2.11
        assert result.measures["release_lotteries"] > 200
        # Both groups' waiting-time histograms have mass (Figure 11).
        assert {row["group"] for row in result.rows} \
            == {"group-A", "group-B"}


class TestOverhead:
    def test_lottery_cost_comparable_to_timesharing(self, race_tracker_off):
        result = ex.overhead.run(duration_ms=30_000)
        # "Comparable": a lottery dispatch takes at most the bound's
        # multiple of a timesharing dispatch's exact work (calls).
        assert result.measures["work_ratio"] <= ex.overhead.WORK_RATIO_BOUND
        # Both policies deliver the same virtual CPU to the workload.
        iterations = {row["policy"]: row["iterations"]
                      for row in result.rows}
        assert iterations["lottery"] == pytest.approx(
            iterations["timesharing"], rel=0.05)


    @pytest.mark.parametrize("duration_ms", [1_000.0, 500.0, float("nan")])
    def test_a_run_inside_the_warm_up_is_refused(self, duration_ms):
        with pytest.raises(ExperimentError, match="^duration_ms must"):
            ex.overhead.run_dhrystone_work("lottery", duration_ms)


class TestInverseMemory:
    def test_eviction_shares_track_prediction(self):
        result = ex.inverse_memory.run(references=15_000)
        assert report_sha(result) == "7f8b69346f746ca8"
        for row in result.rows:
            assert row["observed_share"] == pytest.approx(
                row["predicted_share"], abs=0.06
            )
        observed = {row["client"]: row["observed_share"]
                    for row in result.rows}
        assert observed["A"] < observed["B"] < observed["C"]
        # The ticket-blind baseline victimizes uniformly.
        shares = result.measures["lru_eviction_share"].values()
        assert max(shares) - min(shares) < 0.05


class TestDiverseResources:
    def test_disk_and_link_shares(self):
        result = ex.diverse_resources.run()
        assert report_sha(result) == "76724fd79f636068"
        assert result.measures["disk_ratio"] == pytest.approx(3.0, rel=0.2)
        x_over_z, y_over_z = result.measures["link_ratio"]
        assert x_over_z == pytest.approx(4.0, rel=0.2)
        assert y_over_z == pytest.approx(2.0, rel=0.2)
        # Round-robin baselines split evenly.
        rr_rows = [r for r in result.rows
                   if r.get("scheduler") == "round-robin"
                   and r["resource"] == "disk"]
        assert rr_rows[0]["A_share"] == pytest.approx(0.5, abs=0.05)


class TestAblations:
    def test_cv_law(self):
        result = ex.ablations.run_quantum_accuracy(
            lottery_counts=(100, 400), trials=80
        )
        assert report_sha(result) == "86ba2e2cbb57d705"
        for row in result.rows:
            assert 0.5 < row["ratio"] < 2.0
        # 4x the lotteries (half the quantum, twice over) ~halves the CV.
        cv = {row["lotteries"]: row["observed_cv"] for row in result.rows}
        assert cv[400] < cv[100] / 1.5

    def test_lottery_vs_stride(self):
        result = ex.ablations.run_lottery_vs_stride(
            checkpoints_ms=(5_000, 50_000)
        )
        assert report_sha(result) == "7154cd2d4f6784d2"
        stride_rows = [r for r in result.rows if r["policy"] == "stride"]
        lottery_rows = [r for r in result.rows if r["policy"] == "lottery"]
        assert max(r["max_error_quanta"] for r in stride_rows) <= 1.5
        assert (lottery_rows[-1]["max_error_quanta"]
                > stride_rows[-1]["max_error_quanta"])
        # Lottery error grows with time; stride's stays O(1).
        assert (lottery_rows[-1]["max_error_quanta"]
                > lottery_rows[0]["max_error_quanta"])

    def test_compensation_ablation(self):
        result = ex.ablations.run_compensation(duration_ms=150_000)
        assert report_sha(result) == "d1b23c8537c78a08"
        with_comp = next(r for r in result.rows if r["policy"] == "lottery")
        without = next(r for r in result.rows
                       if r["policy"] == "lottery-no-compensation")
        assert with_comp["cpu_ratio"] == pytest.approx(1.0, rel=0.2)
        assert without["cpu_ratio"] == pytest.approx(5.0, rel=0.25)
