"""Replay: dispatch-stream recording, diffing, and the chaos crash test."""

import pytest

from repro.checkpoint import (
    build_recipe,
    diff_streams,
    format_divergence,
    read_stream_file,
    restore,
    save,
    write_stream_file,
)
from repro.errors import CheckpointError


def test_identical_runs_produce_identical_streams():
    left = build_recipe("lottery-mix", {"seed": 4})
    right = build_recipe("lottery-mix", {"seed": 4})
    left.advance(5_000.0)
    right.advance(5_000.0)
    entries = left.components["recorder"].entries
    assert len(entries) > 10
    assert diff_streams(entries, right.components["recorder"].entries) is None


def test_different_seeds_diverge_with_named_triple():
    left = build_recipe("lottery-mix", {"seed": 4})
    right = build_recipe("lottery-mix", {"seed": 5})
    left.advance(5_000.0)
    right.advance(5_000.0)
    divergence = diff_streams(left.components["recorder"].entries,
                              right.components["recorder"].entries)
    assert divergence is not None
    assert divergence.field in ("time", "tid", "name", "draw")
    report = format_divergence(divergence)
    assert f"event #{divergence.index}" in report


def test_diff_streams_reports_first_mismatch_and_prefix():
    base = [{"time": t, "tid": 1, "name": "a", "draw": t * 7}
            for t in range(5)]
    tampered = [dict(e) for e in base]
    tampered[3]["draw"] = 999
    divergence = diff_streams(base, tampered)
    assert (divergence.index, divergence.field) == (3, "draw")
    assert divergence.expected == 21 and divergence.actual == 999

    divergence = diff_streams(base, base[:2])
    assert (divergence.index, divergence.field) == (2, "length")
    assert diff_streams(base, [dict(e) for e in base]) is None


def test_stream_file_round_trip_and_corruption(tmp_path):
    entries = [{"time": 1.0, "tid": 2, "name": "x", "draw": 3}]
    path = str(tmp_path / "run.stream")
    write_stream_file(path, entries)
    assert read_stream_file(path) == entries
    text = open(path).read()
    open(path, "w").write(text.replace('"draw": 3', '"draw": 4'))
    with pytest.raises(CheckpointError, match="integrity"):
        read_stream_file(path)


def test_chaos_crash_restore_is_bit_identical(tmp_path):
    """The acceptance criterion: crash at t=T, restore, continue, and
    the trace stream matches the uninterrupted run with zero divergence."""
    duration, crash_at = 90_000.0, 40_000.0

    reference = build_recipe("chaos-fairness", {"seed": 2718})
    reference.advance(duration)
    expected = reference.stream()

    crashed = build_recipe("chaos-fairness", {"seed": 2718})
    crashed.advance(crash_at)
    path = str(tmp_path / "crash.ckpt")
    save(crashed, path)
    del crashed  # the crash: the live system is gone
    restored, _ = restore(path)
    restored.advance(duration)
    actual = restored.stream()

    assert len(expected) > 1_000
    divergence = diff_streams(expected, actual)
    assert divergence is None, format_divergence(divergence)


def test_draw_field_tracks_prng_position():
    handle = build_recipe("lottery-mix", {"seed": 8})
    handle.advance(2_000.0)
    draws = [e["draw"] for e in handle.components["recorder"].entries]
    assert all(isinstance(d, int) for d in draws)
    assert len(set(draws)) > 1  # the stream position moves between wins
