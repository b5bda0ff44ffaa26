"""Crash flight recorder: checksummed, tamper-evident debug bundles."""

from __future__ import annotations

import json

import pytest

from repro.checkpoint.statetree import tree_checksum
from repro.errors import ReproError, ShardError
from repro.telemetry.flight import (
    BUNDLE_FORMAT,
    BUNDLE_VERSION,
    build_bundle,
    load_bundle,
    summarize_bundle,
    write_bundle,
)

_RINGS = [
    {"core": 0, "time": 1000.0,
     "ring": {"entries": [{"time": 990.0, "tid": 1}],
              "spans": [{"name": "epoch"}]}},
    {"core": 1, "time": 1000.0,
     "ring": {"entries": [{"time": 985.0, "tid": 2},
                          {"time": 990.0, "tid": 2}], "spans": []}},
]


def _bundle(**overrides):
    error = ShardError("worker for shard 0 exhausted its retry budget")
    kwargs = {"plan_checksum": "abc123", "time": 1000.0,
              "rings": _RINGS,
              "metrics": {"repro_obs_cpu_ms": {"kind": "gauge",
                                               "value": 2000.0}},
              "recovery": {"degraded": False,
                           "events": [{"kind": "fault.detected",
                                       "time": 1000.0}]},
              "context": {"backend": "mp", "shards": 2}}
    kwargs.update(overrides)
    return build_bundle(error, **kwargs)


def test_bundle_digest_covers_the_whole_body():
    bundle = _bundle()
    assert bundle["format"] == BUNDLE_FORMAT
    assert bundle["version"] == BUNDLE_VERSION
    assert bundle["error"]["type"] == "ShardError"
    assert "retry budget" in bundle["error"]["message"]
    assert len(bundle["sha256"]) == 64
    # the digest is over everything except itself: any field change
    # changes it.
    assert _bundle(time=1001.0)["sha256"] != bundle["sha256"]


def test_write_load_roundtrip(tmp_path):
    bundle = _bundle()
    path = write_bundle(str(tmp_path / "flight"), bundle)
    assert f"flight-1000-{bundle['sha256'][:12]}.json" in path
    assert load_bundle(path) == bundle


def test_load_rejects_tampering(tmp_path):
    bundle = _bundle()
    path = write_bundle(str(tmp_path), bundle)
    corrupt = dict(bundle)
    corrupt["plan"] = "doctored"
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(corrupt, handle)
    with pytest.raises(ReproError, match="checksum mismatch"):
        load_bundle(path)


def test_load_rejects_foreign_files(tmp_path):
    path = tmp_path / "not-a-bundle.json"
    path.write_text(json.dumps({"format": "something-else"}),
                    encoding="utf-8")
    with pytest.raises(ReproError, match="not a repro-flight-bundle"):
        load_bundle(str(path))


def _resealed(**changes):
    """A bundle edited and re-digested: passes load_bundle's checksum."""
    body = {key: value for key, value in {**_bundle(), **changes}.items()
            if key != "sha256" and value is not None}
    return {**body, "sha256": tree_checksum(body)}


@pytest.mark.parametrize("content, complaint", [
    (None, "cannot read flight bundle"),
    ("{not json", "cannot read flight bundle"),
    ("[1, 2]", "must be a JSON object, got list"),
])
def test_load_names_the_path_of_a_malformed_file(tmp_path, content,
                                                 complaint):
    path = tmp_path / "bundle.json"
    if content is not None:
        path.write_text(content, encoding="utf-8")
    with pytest.raises(ReproError, match=complaint) as excinfo:
        load_bundle(str(path))
    assert str(path) in str(excinfo.value)


@pytest.mark.parametrize("changes, field", [
    ({"error": None}, "error"),
    ({"error": {"type": "ShardError"}}, "message"),
    ({"error": "boom"}, "mistyped"),
    ({"plan": None}, "plan"),
    ({"rings": [7]}, "mistyped"),
])
def test_summary_names_the_field_of_a_digest_valid_bundle(tmp_path, changes,
                                                          field):
    path = tmp_path / "bundle.json"
    path.write_text(json.dumps(_resealed(**changes)), encoding="utf-8")
    bundle = load_bundle(str(path))  # the digest is right; the shape is not
    with pytest.raises(ReproError, match=field):
        summarize_bundle(bundle)


def test_summary_counts_rings_and_recovery():
    summary = summarize_bundle(_bundle())
    assert summary["error"] == "ShardError"
    assert summary["cores"] == 2
    assert summary["ring_entries"] == 3
    assert summary["ring_spans"] == 1
    assert summary["recovery_events"] == 1
    assert summary["degraded"] is False
    assert summary["plan"] == "abc123"


def test_bundle_is_reproducible_for_identical_inputs():
    assert _bundle()["sha256"] == _bundle()["sha256"]
