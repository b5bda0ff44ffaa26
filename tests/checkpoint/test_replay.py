"""Replay: dispatch-stream recording, diffing, and the chaos crash test."""

import json
import re

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
from repro.checkpoint.statetree import tree_checksum
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


def test_stream_file_keeps_sharded_entries(tmp_path):
    entries = [{"time": 0, "tid": 1, "name": "a", "draw": None, "core": 2}]
    path = str(tmp_path / "run.stream")
    write_stream_file(path, entries)
    assert read_stream_file(path) == entries


def test_stream_file_is_the_sorted_json_text(tmp_path):
    entries = [{"time": 0.5, "tid": 1, "name": "é", "draw": None},
               {"time": 2.0, "tid": 3, "name": "b", "draw": 7, "core": 1}]
    path = str(tmp_path / "run.stream")
    write_stream_file(path, entries)
    with open(path, "rb") as handle:
        assert handle.read() == json.dumps({
            "format": "repro-replay-stream", "stream_version": 1,
            "entries": entries, "checksum": tree_checksum(entries),
        }, sort_keys=True, allow_nan=False).encode("utf-8")


@pytest.mark.parametrize("body, why", [
    (b"\xff\xfe{}", "not UTF-8"),
    (b"[" * 100_000 + b"]" * 100_000, "nested too deeply"),
], ids=["not-utf8", "deep"])
def test_a_malformed_stream_file_is_refused_by_name(tmp_path, body, why):
    path = str(tmp_path / "run.stream")
    with open(path, "wb") as handle:
        handle.write(body)
    with pytest.raises(CheckpointError, match=f"run.stream.*{why}"):
        read_stream_file(path)


_ENTRY = {"time": 1.0, "tid": 2, "name": "x", "draw": 3}


@pytest.mark.parametrize("entry, where", [
    (1, "entry 1 is not an object"),
    ([_ENTRY], "entry 1 is not an object"),
    ({**_ENTRY, "time": "x"}, "entry 1 field 'time'"),
    ({**_ENTRY, "time": True}, "entry 1 field 'time'"),
    ({k: v for k, v in _ENTRY.items() if k != "tid"}, "entry 1 field 'tid'"),
    ({**_ENTRY, "tid": 2.0}, "entry 1 field 'tid'"),
    ({**_ENTRY, "name": 7}, "entry 1 field 'name'"),
    ({**_ENTRY, "draw": "3"}, "entry 1 field 'draw'"),
    ({**_ENTRY, "core": None}, "entry 1 field 'core'"),
])
def test_stream_file_refuses_entries_that_are_not_dispatches(
        tmp_path, entry, where):
    """A valid checksum over a stream that is not dispatch records is
    refused by name, not left for diff_streams to trip over."""
    path = str(tmp_path / "run.stream")
    write_stream_file(path, [_ENTRY, entry])
    with pytest.raises(CheckpointError,
                       match=f"{re.escape(path)}.*{re.escape(where)}"):
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
