"""Shape tests for the service-class job-stream experiment."""

import pytest

from repro.experiments import service_classes
from tests.conftest import report_sha


class TestBuildTrace:
    def test_default_trace_composition(self):
        trace = service_classes.build_trace(jobs=300, seed=3)
        assert len(trace) == 300
        classes = {service_classes.CLASSES[j.tickets] for j in trace}
        assert classes == {"gold", "silver", "bronze"}

    def test_trace_deterministic(self):
        a = service_classes.build_trace(jobs=50, seed=7)
        b = service_classes.build_trace(jobs=50, seed=7)
        assert a.to_csv() == b.to_csv()


class TestRunStream:
    def test_lottery_orders_classes(self):
        trace = service_classes.build_trace(jobs=400, seed=9)
        _, means = service_classes.run_stream(
            "lottery", duration_ms=300_000, trace=trace
        )
        assert means["gold"] < means["silver"] < means["bronze"]

    def test_round_robin_flat(self):
        trace = service_classes.build_trace(jobs=400, seed=9)
        _, means = service_classes.run_stream(
            "round-robin", duration_ms=300_000, trace=trace
        )
        values = sorted(means.values())
        assert values[-1] / values[0] < 1.3

    def test_unknown_policy_rejected(self):
        with pytest.raises(ValueError):
            service_classes.run_stream("cfs")


class TestRun:
    def test_summary_shapes(self):
        result = service_classes.run(duration_ms=250_000)
        assert report_sha(result) == "ae9b8f0ae9b3cfe1"
        assert len(result.rows) == 3
        assert "lottery class spread" in result.summary
        rows = {row["policy"]: row for row in result.rows}
        lottery, stride = rows["lottery"], rows["stride"]
        assert lottery["completed"] > 0
        assert lottery["bronze_slowdown"] / lottery["gold_slowdown"] > 1.5
        # Stride orders the classes too, deterministically.
        assert (stride["gold_slowdown"] < stride["silver_slowdown"]
                < stride["bronze_slowdown"])
        # Load < 100%: every policy gets through the same jobs.
        assert len({row["completed"] for row in result.rows}) == 1
