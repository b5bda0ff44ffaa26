"""ServingStats: per-class digests, their state tree and the merge."""

from __future__ import annotations

from repro.serving.stats import ServingStats


def _fed(events):
    stats = ServingStats()
    for name, wake_ms, e2e_ms in events:
        stats.record_offered(name)
        stats.record_wake(name, wake_ms)
        stats.record_completion(name, e2e_ms)
    return stats


_EVENTS = [("gold", 1.0, 12.5), ("bronze", 40.0, 95.25), ("gold", 6.0, 31.0),
           ("gold", 0.0, 9.75), ("bronze", 21.5, 60.0)]


def test_snapshot_carries_bins_by_index_with_exact_sum_and_max():
    state = _fed(_EVENTS).snapshot_state()
    assert state["classes"]["gold"]["e2e"] == {
        "bin_ms": 5.0, "count": 3, "total_ms": 53.25, "max_ms": 31.0,
        "bins": [[1, 1], [2, 1], [6, 1]]}
    assert list(state["classes"]["gold"]["wake"]) == [
        "bin_ms", "count", "total_ms", "max_ms", "bins"]


def test_merge_of_per_core_stats_equals_one_stats_fed_everything():
    whole = _fed(_EVENTS)
    merged = _fed(_EVENTS[:2])
    merged.merge(_fed(_EVENTS[2:]))
    assert merged.snapshot_state() == whole.snapshot_state()
    assert merged.rows() == whole.rows()
