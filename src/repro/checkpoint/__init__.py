"""Crash-consistent checkpoint/restore with bit-exact replay.

The determinism contract (docs/CHECKPOINT.md, "The determinism
contract") makes every run a pure function of its seeds.  This package
turns that property into a robustness tool:

* **capture** (:mod:`repro.checkpoint.capture`) -- walk every
  subsystem's ``snapshot_state()`` seam into a typed, JSON-serializable
  state tree; no pickling of live objects, ever;
* **persist** (:mod:`repro.checkpoint.statetree`) -- versioned,
  SHA-256-checksummed files written atomically (temp + fsync +
  rename), so a crash mid-save never leaves a torn checkpoint and a
  corrupted file is rejected at load;
* **restore** (also :mod:`repro.checkpoint.capture`) -- re-execute the
  recorded recipe to the checkpoint time, prove the reconstruction by
  diffing state trees (first mismatched path = divergence), and
  re-validate scheduler invariants before resuming;
* **replay** (:mod:`repro.checkpoint.replay`) -- record dispatch
  streams as (time, thread, draw) triples and diff them event-by-event
  to the first disagreement.

See ``docs/CHECKPOINT.md`` for the file format, schema versioning
rules, and the divergence-report format.
"""

from repro._exports import lazy_exports

__all__ = [
    "SCHEMA_VERSION",
    "SimHandle",
    "build_recipe",
    "capture_tree",
    "capture_payload",
    "save",
    "restore",
    "restore_payload",
    "verify_against",
    "ReplayRecorder",
    "Divergence",
    "diff_streams",
    "format_divergence",
    "write_stream_file",
    "read_stream_file",
    "canonical_json",
    "tree_checksum",
    "diff_trees",
    "read_checkpoint_file",
    "write_checkpoint_file",
]

__getattr__ = lazy_exports(globals(), {
    "capture_payload": ".capture", "capture_tree": ".capture",
    "save": ".capture", "restore": ".capture",
    "restore_payload": ".capture", "verify_against": ".capture",
    "SimHandle": ".registry", "build_recipe": ".registry",
    "Divergence": ".replay", "ReplayRecorder": ".replay",
    "diff_streams": ".replay", "format_divergence": ".replay",
    "read_stream_file": ".replay", "write_stream_file": ".replay",
    "SCHEMA_VERSION": ".statetree", "canonical_json": ".statetree",
    "diff_trees": ".statetree", "read_checkpoint_file": ".statetree",
    "tree_checksum": ".statetree", "write_checkpoint_file": ".statetree",
})
