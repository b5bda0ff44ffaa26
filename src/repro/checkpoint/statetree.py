"""Canonical state trees: encoding, checksums, diffing, atomic I/O.

A *state tree* is the plain-data form of a simulated system: nested
dicts/lists/scalars produced by the ``snapshot_state()`` seams that
every stateful component exposes (engine, schedulers, kernel, shard
cores, disks, memory).  This module gives the trees their
on-disk contract:

* **canonical encoding** -- one byte-exact JSON rendering per tree
  (sorted keys, no whitespace, NaN/Infinity rejected), so checksums and
  comparisons are stable across processes and Python versions; one
  encoder, :func:`canonical_pieces`, yields it in bounded pieces;
* **integrity checksum** -- SHA-256 fed those pieces, so a digest
  never holds the whole encoding; a corrupted or hand-edited
  checkpoint is rejected at load, never silently restored;
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
import sys
from typing import Any, Dict, Iterator, List, Optional, Tuple

from repro.errors import CheckpointError

__all__ = [
    "SCHEMA_VERSION",
    "FORMAT_NAME",
    "canonical_json",
    "canonical_pieces",
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


#: Items of a long list the C encoder renders per call: what bounds a
#: canonical piece, and so what a digest holds at once.
_SLICE = 512

#: ``json.dumps`` with the canonical settings, its encoder built once.
_encode = json.JSONEncoder(sort_keys=True, separators=(",", ":"),
                           allow_nan=False).encode


def _long(value: Any) -> bool:
    return isinstance(value, (list, tuple)) and len(value) > _SLICE


def _opens(value: Any) -> bool:
    """Whether the canonical encoder walks ``value`` itself rather than
    hand it whole to the C encoder: a list longer than a slice, or a
    dict holding a dict or such a list."""
    if isinstance(value, dict):
        return any(isinstance(item, dict) or _long(item)
                   for item in value.values())
    return _long(value)


def _key(key: Any) -> str:
    """A dict key as the C encoder renders it: a non-str key through
    the encoder itself, so bool, float, None and int subclasses (and
    the refusals) come out exactly as ``json.dumps`` makes them."""
    if isinstance(key, str):
        return _encode(key)
    return _encode({key: None})[1:-6]  # '{' key ':null}'


def _parts(tree: Any) -> Iterator[Any]:
    """The pieces of one opened container, each an encoded ``str`` or
    a value to open in its place, in canonical order."""
    if isinstance(tree, dict):
        sep = "{"
        for key, value in sorted(tree.items()):
            head = sep + _key(key) + ":"
            sep = ","
            if _opens(value):
                yield head
                yield value
            else:
                yield head + _encode(value)
        yield "}"
        return
    sep = "["
    for start in range(0, len(tree), _SLICE):
        yield sep + _encode(tree[start:start + _SLICE])[1:-1]
        sep = ","
    yield "]"


def canonical_pieces(tree: Any) -> Iterator[str]:
    """The canonical encoding of ``tree`` in bounded pieces.

    They concatenate to exactly ``json.dumps(tree, sort_keys=True,
    separators=(",", ":"), allow_nan=False)``.  A list longer than a
    slice is encoded one slice of items at a time and a dict holding a
    dict or such a list one item at a time, walked here with an
    explicit stack; everything else is one C encoder call.  Refused
    with :class:`CheckpointError`: NaN or infinity anywhere,
    unserializable objects, keys of mixed types, circular references
    and trees nested deeper than the recursion limit.
    """
    try:
        if not _opens(tree):
            yield _encode(tree)
            return
        limit = sys.getrecursionlimit()
        on_path = {id(tree)}
        stack = [(id(tree), _parts(tree))]
        while stack:
            ident, parts = stack[-1]
            for part in parts:
                if isinstance(part, str):
                    yield part
                    continue
                if id(part) in on_path:
                    raise ValueError("Circular reference detected")
                if len(stack) >= limit:
                    raise RecursionError("maximum recursion depth exceeded")
                on_path.add(id(part))
                stack.append((id(part), _parts(part)))
                break
            else:
                stack.pop()
                on_path.discard(ident)
    except (TypeError, ValueError) as exc:
        raise CheckpointError(
            f"state tree is not canonically serializable: {exc}"
        ) from exc
    except RecursionError as exc:
        raise CheckpointError(
            f"state tree is nested too deeply to encode: {exc}"
        ) from exc


def canonical_json(tree: Any) -> str:
    """The one true JSON rendering of a state tree.

    Sorted keys and tight separators make the encoding a function of
    the tree's *value* alone; ``allow_nan=False`` rejects NaN/Infinity,
    which have no portable JSON form and would poison checksums.
    """
    return "".join(canonical_pieces(tree))


def tree_checksum(tree: Any) -> str:
    """SHA-256 hex digest of the canonical encoding, fed piece by
    piece: the whole encoding is never held at once."""
    digest = hashlib.sha256()
    for piece in canonical_pieces(tree):
        digest.update(piece.encode("utf-8"))
    return digest.hexdigest()


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


def write_json_file(path: str, payload: Any, what: str,
                    indent: Optional[int] = None) -> None:
    """Crash-consistent write of ``payload`` as sorted-key JSON: temp
    file, fsync, atomic rename.

    ``json.dump`` writes straight into the temp file, so no whole-file
    string is ever built.  The temp file lives in the destination
    directory so the final ``os.replace`` is a same-filesystem atomic
    rename; a crash at any point leaves either the previous file or
    the complete new one; a payload that does not serialize raises and
    leaves no temp file behind.  ``what`` names the temp file.
    """
    import tempfile  # only writers pay for it (it loads random)

    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp_path = tempfile.mkstemp(prefix=f".{what}-", dir=directory)
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, sort_keys=True, indent=indent,
                      allow_nan=False)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp_path, path)
    except BaseException:
        try:
            os.unlink(tmp_path)
        except OSError:
            pass
        raise


def read_json_file(path: str, what: str) -> Any:
    """Parse a JSON file; anything that is not readable UTF-8 JSON of
    sane depth raises :class:`CheckpointError` naming ``path``."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle)
    except OSError as exc:
        raise CheckpointError(f"cannot read {what} {path!r}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise CheckpointError(
            f"{what} {path!r} is not UTF-8 text: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise CheckpointError(
            f"{what} {path!r} is not valid JSON: {exc}") from exc
    except RecursionError as exc:
        raise CheckpointError(
            f"{what} {path!r} is nested too deeply to parse") from exc


def write_checkpoint_file(path: str, payload: Dict[str, Any]) -> None:
    """Crash-consistent write of a checkpoint (see
    :func:`write_json_file`)."""
    write_json_file(path, payload, "checkpoint", indent=1)


def read_checkpoint_file(path: str) -> Dict[str, Any]:
    """Load and *validate* a checkpoint: format, version, checksum,
    and the types of the fields restore acts on.

    A file that fails any check raises :class:`CheckpointError`; a
    corrupted checkpoint is never silently loaded.
    """
    payload = read_json_file(path, "checkpoint")
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
__all__ += ["build_payload", "checkpoint_summary", "read_json_file",
            "write_json_file"]
