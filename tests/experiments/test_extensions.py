"""Shape tests for the extension experiments (reduced scale)."""


from repro.experiments import cluster_fairness, multiresource, responsiveness


class TestResponsiveness:
    def test_compensation_dominates_no_compensation(self):
        result = responsiveness.run(duration_ms=60_000)
        rows = {row["policy"]: row for row in result.rows}
        assert (rows["lottery"]["mean_latency_ms"]
                < rows["lottery-no-compensation"]["mean_latency_ms"] / 3)
        # Well under one 100 ms quantum on average, and the compensated
        # thread also got far more of its requested CPU.
        assert rows["lottery"]["mean_latency_ms"] < 60
        assert (rows["lottery"]["ui_cpu_ms"]
                > 3 * rows["lottery-no-compensation"]["ui_cpu_ms"])
        assert rows["fixed-priority"]["bursts_completed"] == 0
        assert rows["lottery"]["bursts_completed"] > 100

    def test_single_policy_runner(self):
        row = responsiveness.run_policy("round-robin",
                                        duration_ms=30_000, hogs=3)
        # Round-robin: the waking interactive thread queues behind the
        # hogs ahead of it -- roughly two full quanta on average.
        assert 150 < row["mean_latency_ms"] < 305
        assert row["bursts_completed"] > 50


class TestMultiresource:
    def test_manager_tracks_phase(self):
        result = multiresource.run(duration_ms=200_000)
        items = {row["policy"]: row["items"] for row in result.rows}
        assert items["manager"] >= 0.9 * max(items.values())
        # Each lopsided static split is wrong for one of the two phases.
        assert items["manager"] > 1.1 * items["static-disk"]
        assert items["manager"] > 1.1 * items["static-cpu"]
        manager_row = next(r for r in result.rows
                           if r["policy"] == "manager")
        assert manager_row["rebalances"] > 10
        # It ended in the CPU-bound phase's allocation.
        final = result.summary["manager final split"]
        cpu = float(final.split("cpu=")[1].split(",")[0])
        disk = float(final.split("disk=")[1].split(" ")[0])
        assert cpu > disk

    def test_variant_diagnostics(self):
        outcome = multiresource.run_variant("static-50",
                                            duration_ms=60_000)
        assert outcome["items"] > 0
        assert outcome["rebalances"] == 1  # only the initial split
        assert set(outcome["final_allocation"]) == {"cpu", "disk"}


class TestClusterFairness:
    def test_migration_beats_static(self):
        result = cluster_fairness.run(duration_ms=100_000)
        static = float(
            result.summary["max relative error (static placement)"]
        )
        balanced = float(
            result.summary["max relative error (rebalancing)"]
        )
        # Worst-case placement defeats independent node lotteries;
        # funding-balancing migration restores the global shares.
        assert static > 0.4
        assert balanced < 0.25
        assert balanced < static / 2
        assert result.summary["migrations (rebalancing)"] > 0
        assert result.summary["migrations (static placement)"] == 0

    def test_report_rows_cover_both_variants(self):
        result = cluster_fairness.run(duration_ms=50_000)
        variants = {row["variant"] for row in result.rows}
        assert variants == {"static placement", "rebalancing"}
        for row in result.rows:
            assert row["cpu_ms"] >= 0
            assert row["entitled_ms"] >= 0


class TestShardObservability:
    def test_backends_agree_on_the_canonical_record(self):
        from repro.experiments import shard_observability

        single = shard_observability.run_backend("single", 1)
        inline = shard_observability.run_backend("inline", 2)
        assert single["canonical_sha"] == inline["canonical_sha"]
        assert single["trace_sha"] == inline["trace_sha"]
        assert single["slo_ok"] and inline["slo_ok"]
        assert single["restarts"] == inline["restarts"] == 0

    def test_report_covers_every_backend_combo(self):
        from repro.experiments import shard_observability

        labels = {label for label, _, _, _
                  in shard_observability.BACKENDS}
        assert "supervised+kill x2" in labels  # faulted combo present
        assert any(b == "mp" for _, b, _, _
                   in shard_observability.BACKENDS)
