"""Canonical state trees: encoding, checksums, diffing, atomic I/O.

A *state tree* is the plain-data form of a simulated system: nested
dicts/lists/scalars produced by the ``snapshot_state()`` seams that
every stateful component exposes (engine, schedulers, kernel, shard
cores, disks, memory).  This module gives the trees their
on-disk contract:

* **canonical encoding** -- one byte-exact JSON rendering per tree
  (sorted keys, no whitespace, NaN/Infinity rejected), so checksums and
  comparisons are stable across processes and Python versions;
* **integrity checksum** -- SHA-256 over the canonical payload; a
  corrupted or hand-edited checkpoint is rejected at load, never
  silently restored;
* **structural diff** -- recursive comparison returning the *path* of
  the first mismatch (``state.nodes[1].kernel.running``), which is how
  restore verification and divergence reports name what broke;
* **crash-consistent writes** -- temp file + fsync + ``os.replace`` in
  the target directory, so a crash mid-save leaves either the old
  checkpoint or the new one, never a torn file.

The file format is versioned: ``SCHEMA_VERSION`` bumps whenever the
shape of any component's state tree changes incompatibly (see
``docs/CHECKPOINT.md`` for the versioning rules).
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from typing import Any, Dict, List, Tuple

from repro.errors import CheckpointError

__all__ = [
    "SCHEMA_VERSION",
    "FORMAT_NAME",
    "canonical_json",
    "tree_checksum",
    "diff_trees",
    "format_mismatches",
    "write_checkpoint_file",
    "read_checkpoint_file",
]

#: Bump on any incompatible change to a component's state-tree shape.
SCHEMA_VERSION = 1

#: The ``format`` field every checkpoint file must carry.
FORMAT_NAME = "repro-checkpoint"

#: Fields covered by the checksum (everything except the checksum itself).
_CHECKSUMMED_FIELDS = ("format", "schema_version", "recipe", "args",
                      "time_ms", "state")


def canonical_json(tree: Any) -> str:
    """The one true JSON rendering of a state tree.

    Sorted keys and tight separators make the encoding a function of
    the tree's *value* alone; ``allow_nan=False`` rejects NaN/Infinity,
    which have no portable JSON form and would poison checksums.
    """
    try:
        return json.dumps(tree, sort_keys=True, separators=(",", ":"),
                          allow_nan=False)
    except (TypeError, ValueError) as exc:
        raise CheckpointError(
            f"state tree is not canonically serializable: {exc}"
        ) from exc


def tree_checksum(tree: Any) -> str:
    """SHA-256 hex digest of the canonical encoding."""
    return hashlib.sha256(canonical_json(tree).encode("utf-8")).hexdigest()


# -- structural diff ---------------------------------------------------------


def diff_trees(expected: Any, actual: Any, path: str = "state",
               limit: int = 20) -> List[Tuple[str, Any, Any]]:
    """First mismatches between two trees, as (path, expected, actual).

    Traversal is depth-first in key order, so the first entry is the
    shallowest-leftmost divergence -- the thing to report.  ``limit``
    caps the list; a badly diverged tree does not produce megabytes of
    noise.
    """
    mismatches: List[Tuple[str, Any, Any]] = []
    _diff(expected, actual, path, mismatches, limit)
    return mismatches


def _diff(expected: Any, actual: Any, path: str,
          out: List[Tuple[str, Any, Any]], limit: int) -> None:
    if len(out) >= limit:
        return
    if isinstance(expected, dict) and isinstance(actual, dict):
        for key in sorted(set(expected) | set(actual), key=str):
            if key not in expected:
                out.append((f"{path}.{key}", "<absent>", actual[key]))
            elif key not in actual:
                out.append((f"{path}.{key}", expected[key], "<absent>"))
            else:
                _diff(expected[key], actual[key], f"{path}.{key}", out, limit)
            if len(out) >= limit:
                return
        return
    if isinstance(expected, list) and isinstance(actual, list):
        if len(expected) != len(actual):
            out.append((f"{path}.length", len(expected), len(actual)))
        for index in range(min(len(expected), len(actual))):
            _diff(expected[index], actual[index], f"{path}[{index}]",
                  out, limit)
            if len(out) >= limit:
                return
        return
    # Scalars (or mismatched container kinds).  Compare through the
    # canonical encoding so 1 == 1.0 and restored-from-JSON floats
    # match captured ones byte-for-byte.
    if canonical_json(expected) != canonical_json(actual):
        out.append((path, expected, actual))


def format_mismatches(mismatches: List[Tuple[str, Any, Any]]) -> str:
    """Human-readable rendering, one mismatch per line."""
    lines = []
    for path, expected, actual in mismatches:
        lines.append(f"{path}: expected {expected!r}, got {actual!r}")
    return "\n".join(lines)


# -- file format --------------------------------------------------------------


def _checksummed_payload(payload: Dict[str, Any]) -> Dict[str, Any]:
    return {key: payload[key] for key in _CHECKSUMMED_FIELDS}


def build_payload(recipe: str, args: Dict[str, Any], time_ms: float,
                  state: Dict[str, Any]) -> Dict[str, Any]:
    """Assemble a complete, checksummed checkpoint payload."""
    payload: Dict[str, Any] = {
        "format": FORMAT_NAME,
        "schema_version": SCHEMA_VERSION,
        "recipe": recipe,
        "args": args,
        "time_ms": time_ms,
        "state": state,
    }
    payload["checksum"] = tree_checksum(_checksummed_payload(payload))
    return payload


def write_checkpoint_file(path: str, payload: Dict[str, Any]) -> None:
    """Crash-consistent write: temp file, fsync, atomic rename.

    The temp file lives in the destination directory so the final
    ``os.replace`` is a same-filesystem atomic rename; a crash at any
    point leaves either the previous file or the complete new one.
    """
    import tempfile  # only writers pay for it (it loads random)

    directory = os.path.dirname(os.path.abspath(path)) or "."
    encoded = json.dumps(payload, sort_keys=True, indent=1,
                         allow_nan=False)
    fd, tmp_path = tempfile.mkstemp(prefix=".ckpt-", dir=directory)
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            handle.write(encoded)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp_path, path)
    except BaseException:
        try:
            os.unlink(tmp_path)
        except OSError:
            pass
        raise


def read_checkpoint_file(path: str) -> Dict[str, Any]:
    """Load and *validate* a checkpoint: format, version, checksum,
    and the types of the fields restore acts on.

    A file that fails any check raises :class:`CheckpointError`; a
    corrupted checkpoint is never silently loaded.
    """
    try:
        with open(path, "r", encoding="utf-8") as handle:
            payload = json.load(handle)
    except OSError as exc:
        raise CheckpointError(f"cannot read checkpoint {path!r}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise CheckpointError(
            f"checkpoint {path!r} is not valid JSON: {exc}"
        ) from exc
    if not isinstance(payload, dict):
        raise CheckpointError(f"checkpoint {path!r} is not a JSON object")
    if payload.get("format") != FORMAT_NAME:
        raise CheckpointError(
            f"checkpoint {path!r} has format {payload.get('format')!r}, "
            f"expected {FORMAT_NAME!r}"
        )
    version = payload.get("schema_version")
    if version != SCHEMA_VERSION:
        raise CheckpointError(
            f"checkpoint {path!r} has schema version {version!r}; this "
            f"build reads version {SCHEMA_VERSION} only"
        )
    missing = [key for key in (*_CHECKSUMMED_FIELDS, "checksum")
               if key not in payload]
    if missing:
        raise CheckpointError(
            f"checkpoint {path!r} is missing fields: {missing}"
        )
    expected = tree_checksum(_checksummed_payload(payload))
    if payload["checksum"] != expected:
        raise CheckpointError(
            f"checkpoint {path!r} failed its integrity check: stored "
            f"checksum {payload['checksum']!r} != computed {expected!r} "
            f"(file is corrupted or was edited; refusing to load)"
        )
    # A valid checksum vouches for the bytes, not for who wrote them.
    if not isinstance(payload["recipe"], str):
        raise CheckpointError(f"checkpoint {path!r} field 'recipe' must be "
                              f"a string: {payload['recipe']!r}")
    if not isinstance(payload["args"], dict):
        raise CheckpointError(f"checkpoint {path!r} field 'args' must be "
                              f"an object: {payload['args']!r}")
    time_ms = payload["time_ms"]
    if isinstance(time_ms, bool) or not isinstance(time_ms, (int, float)) \
            or not math.isfinite(time_ms):
        raise CheckpointError(f"checkpoint {path!r} field 'time_ms' must be "
                              f"a finite number: {time_ms!r}")
    return payload


def checkpoint_summary(payload: Dict[str, Any]) -> str:
    """One-line description of a validated payload (CLI convenience)."""
    return (f"recipe={payload['recipe']} t={payload['time_ms']:g}ms "
            f"schema=v{payload['schema_version']} "
            f"checksum={payload['checksum'][:12]}...")


#: Re-exported for callers that format payload summaries.
__all__ += ["build_payload", "checkpoint_summary"]
