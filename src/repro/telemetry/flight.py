"""Crash flight recorder: checksummed debug bundles for shard failures.

Every obs frame already carries a bounded per-core ring of recent
replay entries and completed spans (see
:mod:`repro.telemetry.aggregate`), shipped to the parent at every
epoch barrier.  When a sharded run dies --
:class:`~repro.errors.ShardError` (including
:class:`~repro.errors.FrameCorruptError`), a determinism-race
sanitizer trap, or an invariant violation -- the engine dumps those
rings, the latest global metrics, and the supervisor's recovery
timeline into a single JSON **flight bundle**:

* the bundle body is canonical JSON (sorted keys, compact separators)
  with a ``sha256`` over itself, so a bundle shipped around in a bug
  report is tamper-evident;
* rings live parent-side, so the bundle survives workers that died by
  SIGKILL and never got to flush anything;
* :func:`load_bundle` verifies the digest and raises on mismatch --
  the same contract as the checkpoint files.

The bundle deliberately contains only plain data already shipped over
the barrier protocol: producing it cannot perturb the (already dead)
run, and reproducing the failure needs nothing but the plan identity
inside it.
"""

from __future__ import annotations

import json
import os
import traceback
from typing import Any, Dict, Optional

from repro.checkpoint.statetree import canonical_json, tree_checksum
from repro.errors import ReproError

__all__ = ["BUNDLE_FORMAT", "BUNDLE_VERSION", "build_bundle",
           "load_bundle", "summarize_bundle", "write_bundle"]

BUNDLE_FORMAT = "repro-flight-bundle"
BUNDLE_VERSION = 1


def build_bundle(error: BaseException, *,
                 plan_checksum: str,
                 time: float,
                 rings: Any,
                 metrics: Optional[Dict[str, Any]] = None,
                 recovery: Optional[Dict[str, Any]] = None,
                 context: Optional[Dict[str, Any]] = None) -> Dict[str, Any]:
    """Assemble a flight bundle for ``error`` (adds the digest)."""
    body: Dict[str, Any] = {
        "format": BUNDLE_FORMAT,
        "version": BUNDLE_VERSION,
        "error": {
            "type": type(error).__name__,
            "message": str(error),
            "traceback": traceback.format_exception(
                type(error), error, error.__traceback__),
        },
        "plan": plan_checksum,
        "time": float(time),
        "rings": rings,
        "metrics": metrics or {},
        "recovery": recovery or {},
        "context": context or {},
    }
    body["sha256"] = tree_checksum({key: value
                                    for key, value in body.items()
                                    if key != "sha256"})
    return body


def write_bundle(directory: str, bundle: Dict[str, Any]) -> str:
    """Write a bundle as ``flight-<ms>-<digest12>.json``; returns the path."""
    os.makedirs(directory, exist_ok=True)
    stamp = f"{bundle['time']:.0f}"
    name = f"flight-{stamp}-{bundle['sha256'][:12]}.json"
    path = os.path.join(directory, name)
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(canonical_json(bundle) + "\n")
    return path


def load_bundle(path: str) -> Dict[str, Any]:
    """Read and digest-verify a flight bundle."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            bundle = json.load(handle)
    except (OSError, ValueError) as exc:
        raise ReproError(f"{path}: cannot read flight bundle: {exc}") from exc
    if not isinstance(bundle, dict):
        raise ReproError(
            f"{path}: flight bundle must be a JSON object, got "
            f"{type(bundle).__name__}")
    if bundle.get("format") != BUNDLE_FORMAT:
        raise ReproError(
            f"{path}: not a {BUNDLE_FORMAT} file "
            f"(format={bundle.get('format')!r})")
    expected = bundle.get("sha256")
    actual = tree_checksum({key: value for key, value in bundle.items()
                            if key != "sha256"})
    if actual != expected:
        raise ReproError(
            f"{path}: flight bundle checksum mismatch: recorded "
            f"{expected!r}, recomputed {actual!r}")
    return bundle


def summarize_bundle(bundle: Dict[str, Any]) -> Dict[str, Any]:
    """Small human-facing digest of a (verified) bundle."""
    try:
        rings = bundle.get("rings") or []
        recovery = bundle.get("recovery") or {}
        return {
            "error": bundle["error"]["type"],
            "message": bundle["error"]["message"],
            "time": bundle["time"],
            "plan": bundle["plan"],
            "cores": len(rings),
            "ring_entries": sum(
                len(ring.get("ring", {}).get("entries", []))
                for ring in rings),
            "ring_spans": sum(
                len(ring.get("ring", {}).get("spans", []))
                for ring in rings),
            "recovery_events": len(recovery.get("events", [])),
            "degraded": bool(recovery.get("degraded")),
            "sha256": bundle["sha256"],
        }
    except (KeyError, TypeError, AttributeError) as exc:
        raise ReproError(
            f"flight bundle has a missing or mistyped field: {exc}") from exc
