"""Capturing, saving and restoring checkpoints of a live simulation.

``capture_tree`` walks a :class:`~repro.checkpoint.registry.SimHandle`'s
components and assembles the typed state tree; ``save`` wraps it in the
versioned, checksummed file format and writes it crash-consistently.

Capture refuses incoherent states rather than persisting them: the
kernel seam raises if the dispatch window is torn (a snapshot landing
mid-dispatch would otherwise bake the inconsistency into the file), and
the sanitizer families are re-run over every kernel before the tree is
accepted -- the same gate restore applies before resuming.

Thread bodies are generator frames and cannot be deserialized, so
``restore`` does not patch live objects from data.  Instead it exploits
the determinism contract (docs/CHECKPOINT.md, "The determinism
contract"): the checkpoint names the recipe and arguments that built
the system, restore re-executes that recipe to the checkpoint's
virtual time, and then *proves* the reconstruction by capturing the
rebuilt system's state tree and diffing it against the saved one.  Any mismatch -- a code
change since the checkpoint was taken, a non-deterministic recipe, a
corrupted state -- surfaces as :class:`~repro.errors.DivergenceError`
naming the first divergent path, instead of a silently different
simulation.  Before the handle is returned, the invariant sanitizer
re-validates every kernel: a checkpoint that decodes and diffs clean
but violates scheduler invariants is still refused.
"""

from __future__ import annotations

from typing import Any, Dict, Tuple

from repro.checkpoint.registry import SimHandle, build_recipe
from repro.checkpoint.statetree import (build_payload, diff_trees,
                                        format_mismatches,
                                        read_checkpoint_file,
                                        write_checkpoint_file)
from repro.errors import CheckpointError, DivergenceError, InvariantViolation

__all__ = ["capture_tree", "capture_payload", "save", "sanitize_handle",
           "restore", "restore_payload", "verify_against"]


def capture_tree(handle: SimHandle) -> Dict[str, Any]:
    """The full state tree: one subtree per named component."""
    state: Dict[str, Any] = {}
    for name, component in handle.components.items():
        seam = getattr(component, "snapshot_state", None)
        if seam is None:
            raise CheckpointError(
                f"component {name!r} ({type(component).__name__}) has no "
                f"snapshot_state() seam"
            )
        state[name] = seam()
    return state


def sanitize_handle(handle: SimHandle) -> None:
    """Run the invariant sanitizer over every kernel in the system.

    Used as a gate on both capture and restore: a checkpoint must
    describe a system whose ticket conservation, currency graph,
    run-queue membership, and compensation lifetimes all hold.
    """
    from repro.analysis.sanitizer import InvariantSanitizer

    checker = InvariantSanitizer(raise_on_violation=False)
    for kernel in handle.kernels():
        checker.check(kernel)
    if checker.violations:
        raise InvariantViolation(
            "refusing checkpoint of an invariant-violating system:\n  "
            + "\n  ".join(checker.violations)
        )


def capture_payload(handle: SimHandle, sanitize: bool = True
                    ) -> Dict[str, Any]:
    """Capture the handle into a complete, checksummed payload."""
    if sanitize:
        sanitize_handle(handle)
    return build_payload(handle.recipe, handle.args, handle.now,
                         capture_tree(handle))


def save(handle: SimHandle, path: str, sanitize: bool = True
         ) -> Dict[str, Any]:
    """Capture and atomically write a checkpoint file; returns the payload."""
    payload = capture_payload(handle, sanitize=sanitize)
    write_checkpoint_file(path, payload)
    _notify_telemetry("save", handle.now, payload.get("checksum"), path)
    return payload


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
    """Report to telemetry hooks *only if already imported*.

    Import-gated on purpose: checkpointing must not pull in (or
    behave differently because of) the telemetry subsystem.  A run
    that never imports ``repro.telemetry`` takes the None branch and
    is bit-identical to one predating the subsystem.
    """
    import sys

    hooks = sys.modules.get("repro.telemetry.hooks")
    if hooks is not None:
        hooks.emit_checkpoint(kind, time_ms, checksum, path)
