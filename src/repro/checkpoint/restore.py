"""Restoring a checkpoint: re-execute, verify, sanitize, resume.

Thread bodies are generator frames and cannot be deserialized, so
restore does not patch live objects from data.  Instead it exploits the
determinism contract (``docs/DETERMINISM.md``): the checkpoint names
the recipe and arguments that built the system, restore re-executes
that recipe to the checkpoint's virtual time, and then *proves* the
reconstruction by capturing the rebuilt system's state tree and
diffing it against the saved one.  Any mismatch -- a code change since
the checkpoint was taken, a non-deterministic recipe, a corrupted
state -- surfaces as :class:`~repro.errors.DivergenceError` naming the
first divergent path, instead of a silently different simulation.

Before the handle is returned, the invariant sanitizer re-validates
ticket conservation, currency-graph acyclicity, run-queue membership,
and compensation lifetimes on every kernel: a checkpoint that decodes
and diffs clean but violates scheduler invariants is still refused.
"""

from __future__ import annotations

from typing import Any, Dict, Tuple

from repro.checkpoint.capture import capture_tree, sanitize_handle
from repro.checkpoint.registry import SimHandle, build_recipe
from repro.checkpoint.statetree import (diff_trees, format_mismatches,
                                        read_checkpoint_file)
from repro.errors import CheckpointError, DivergenceError

__all__ = ["restore", "restore_payload", "verify_against"]


def verify_against(handle: SimHandle, payload: Dict[str, Any]) -> None:
    """Diff the handle's live state tree against a payload's saved tree."""
    live = capture_tree(handle)
    mismatches = diff_trees(payload["state"], live)
    if mismatches:
        raise DivergenceError(
            f"restored run diverged from checkpoint at "
            f"t={payload['time_ms']:g}ms "
            f"({len(mismatches)} mismatched path(s); first is the "
            f"shallowest):\n" + format_mismatches(mismatches)
        )


def restore_payload(payload: Dict[str, Any], verify: bool = True,
                    sanitize: bool = True,
                    path: str = "<payload>") -> SimHandle:
    """Rebuild a live system from a validated payload (read from
    ``path``, which errors name)."""
    try:
        handle = build_recipe(payload["recipe"], payload["args"])
    except CheckpointError as exc:
        raise CheckpointError(f"checkpoint {path!r}: {exc}") from None
    handle.advance(payload["time_ms"])
    if verify:
        verify_against(handle, payload)
    if sanitize:
        sanitize_handle(handle)
    return handle


def restore(path: str, verify: bool = True, sanitize: bool = True
            ) -> Tuple[SimHandle, Dict[str, Any]]:
    """Load, rebuild, verify, and sanitize a checkpoint file.

    Returns ``(handle, payload)``: the live system positioned at the
    checkpoint time (ready to ``advance`` further) and the validated
    payload it was restored from.
    """
    payload = read_checkpoint_file(path)
    handle = restore_payload(payload, verify=verify, sanitize=sanitize,
                             path=path)
    _notify_telemetry("restore", handle.now, payload.get("checksum"), path)
    return handle, payload


def _notify_telemetry(kind: str, time_ms: float, checksum: Any,
                      path: str) -> None:
    """Report to telemetry hooks *only if already imported* (see
    ``capture._notify_telemetry`` for the rationale)."""
    import sys

    hooks = sys.modules.get("repro.telemetry.hooks")
    if hooks is not None:
        hooks.emit_checkpoint(kind, time_ms, checksum, path)
