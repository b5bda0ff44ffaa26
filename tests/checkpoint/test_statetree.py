"""Canonical encoding, checksums, diffs, and the checkpoint file format."""

import json
import os
import tracemalloc

import pytest

from repro.checkpoint.statetree import (
    FORMAT_NAME,
    SCHEMA_VERSION,
    build_payload,
    canonical_json,
    diff_trees,
    format_mismatches,
    read_checkpoint_file,
    tree_checksum,
    write_checkpoint_file,
)
from repro.errors import CheckpointError


def test_canonical_json_is_key_order_independent():
    assert canonical_json({"b": 1, "a": [2, {"d": 3, "c": 4}]}) == \
        canonical_json({"a": [2, {"c": 4, "d": 3}], "b": 1})


def test_canonical_json_rejects_nan_and_unserializable():
    with pytest.raises(CheckpointError):
        canonical_json({"x": float("nan")})
    with pytest.raises(CheckpointError):
        canonical_json({"x": object()})


def test_checksum_changes_with_content():
    base = {"a": 1, "b": [1, 2, 3]}
    assert tree_checksum(base) == tree_checksum(dict(base))
    assert tree_checksum(base) != tree_checksum({"a": 1, "b": [1, 2, 4]})


def test_diff_trees_names_first_mismatch_path():
    expected = {"kernel": {"running": 3, "queue": [1, 2]}}
    actual = {"kernel": {"running": 4, "queue": [1, 2]}}
    mismatches = diff_trees(expected, actual)
    assert mismatches == [("state.kernel.running", 3, 4)]
    assert "state.kernel.running" in format_mismatches(mismatches)


def test_diff_trees_reports_missing_keys_and_length():
    mismatches = diff_trees({"a": 1}, {"b": 2})
    paths = {path for path, _, _ in mismatches}
    assert paths == {"state.a", "state.b"}
    mismatches = diff_trees({"q": [1, 2]}, {"q": [1]})
    assert ("state.q.length", 2, 1) in mismatches


def test_diff_trees_identical_is_empty():
    tree = {"a": [1, {"b": 2.5}], "c": None}
    assert diff_trees(tree, json.loads(canonical_json(tree))) == []


def test_diff_trees_respects_limit():
    expected = {str(i): i for i in range(100)}
    actual = {str(i): i + 1 for i in range(100)}
    assert len(diff_trees(expected, actual, limit=5)) == 5


def test_payload_round_trips_through_file(tmp_path):
    payload = build_payload("lottery-mix", {"seed": 3}, 1234.5,
                            {"kernel": {"running": None}})
    path = str(tmp_path / "a.ckpt")
    write_checkpoint_file(path, payload)
    loaded = read_checkpoint_file(path)
    assert loaded == payload
    assert loaded["format"] == FORMAT_NAME
    assert loaded["schema_version"] == SCHEMA_VERSION


def test_atomic_write_leaves_no_temp_files(tmp_path):
    payload = build_payload("lottery-mix", {}, 0.0, {})
    write_checkpoint_file(str(tmp_path / "a.ckpt"), payload)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["a.ckpt"]


def test_corrupted_checkpoint_is_rejected_not_loaded(tmp_path):
    payload = build_payload("lottery-mix", {"seed": 3}, 10.0,
                            {"counter": 41})
    path = str(tmp_path / "a.ckpt")
    write_checkpoint_file(path, payload)
    text = open(path).read()
    open(path, "w").write(text.replace('"counter": 41', '"counter": 42'))
    with pytest.raises(CheckpointError, match="integrity"):
        read_checkpoint_file(path)


def test_truncated_and_non_json_files_are_rejected(tmp_path):
    path = str(tmp_path / "a.ckpt")
    open(path, "w").write('{"format": "repro-checkpoint", "sch')
    with pytest.raises(CheckpointError, match="JSON"):
        read_checkpoint_file(path)
    open(path, "w").write("[1, 2, 3]")
    with pytest.raises(CheckpointError):
        read_checkpoint_file(path)


def test_wrong_format_and_version_are_rejected(tmp_path):
    payload = build_payload("lottery-mix", {}, 0.0, {})
    path = str(tmp_path / "a.ckpt")

    wrong_format = dict(payload, format="something-else")
    write_checkpoint_file(path, wrong_format)
    with pytest.raises(CheckpointError, match="format"):
        read_checkpoint_file(path)

    wrong_version = dict(payload, schema_version=SCHEMA_VERSION + 1)
    write_checkpoint_file(path, wrong_version)
    with pytest.raises(CheckpointError, match="schema version"):
        read_checkpoint_file(path)


def test_missing_fields_are_rejected(tmp_path):
    payload = build_payload("lottery-mix", {}, 0.0, {})
    del payload["recipe"]
    path = str(tmp_path / "a.ckpt")
    with open(path, "w") as handle:
        json.dump(payload, handle)
    with pytest.raises(CheckpointError, match="missing"):
        read_checkpoint_file(path)


def test_missing_file_raises_checkpoint_error(tmp_path):
    with pytest.raises(CheckpointError, match="cannot read"):
        read_checkpoint_file(os.path.join(str(tmp_path), "nope.ckpt"))


def test_checkpoint_file_is_the_indented_sorted_json_text(tmp_path):
    payload = build_payload("lottery-mix", {"seed": 3}, 1234.5,
                            {"kernel": {"queue": [1, 2.5, "é"]}})
    path = str(tmp_path / "a.ckpt")
    write_checkpoint_file(path, payload)
    with open(path, "rb") as handle:
        assert handle.read() == json.dumps(
            payload, sort_keys=True, indent=1,
            allow_nan=False).encode("utf-8")


@pytest.mark.parametrize("bad", [float("nan"), object()])
def test_a_payload_that_does_not_serialize_leaves_no_temp_file(tmp_path,
                                                               bad):
    path = str(tmp_path / "a.ckpt")
    write_checkpoint_file(path, build_payload("lottery-mix", {}, 0.0, {}))
    with open(path, "rb") as handle:
        before = handle.read()
    with pytest.raises((TypeError, ValueError)):
        write_checkpoint_file(path, {"state": {"x": bad}})
    assert sorted(p.name for p in tmp_path.iterdir()) == ["a.ckpt"]
    with open(path, "rb") as handle:
        assert handle.read() == before


def test_a_checkpoint_that_is_not_utf8_is_refused_by_name(tmp_path):
    path = str(tmp_path / "a.ckpt")
    with open(path, "wb") as handle:
        handle.write(b"\xff\xfe{}")
    with pytest.raises(CheckpointError, match="a.ckpt.*not UTF-8"):
        read_checkpoint_file(path)


def test_a_checkpoint_nested_too_deeply_is_refused_by_name(tmp_path):
    path = str(tmp_path / "a.ckpt")
    with open(path, "w") as handle:
        handle.write("[" * 100_000 + "]" * 100_000)
    with pytest.raises(CheckpointError, match="a.ckpt.*nested too deeply"):
        read_checkpoint_file(path)


def test_the_digest_holds_a_fraction_of_the_encoding():
    """tree_checksum streams: hashing a 20 000-entry dispatch stream
    allocates well under its canonical length at peak (the whole
    string, a UTF-8 copy and the C encoder's chunk list took 3.3x)."""
    stream = [{"time": 10.0 * index, "tid": index % 500 + 1,
               "name": f"spin{index % 500}",
               "draw": index * 16807 % 2147483647, "core": index % 4}
              for index in range(20_000)]
    length = len(canonical_json(stream))
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        tree_checksum(stream)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert peak <= 0.5 * length, (peak, length)
