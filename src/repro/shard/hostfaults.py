"""Deterministic host-level fault plans for the supervised mp backend.

A :class:`~repro.shard.plan.ShardPlan`'s ``crash`` / ``restart`` ops
are *simulated* faults: core failures that exist inside the virtual
universe and are part of the deterministic history every backend
reproduces.  This module is the other side of the trust boundary:
**host faults** break the real machinery that executes the simulation
-- worker processes are SIGKILLed, wedged, slowed, and their pipe
frames corrupted or dropped -- and the supervised backend's job is to
recover so that the *simulated* history comes out bit-identical
anyway.  The two layers never mix: a host fault must not change a
single byte of the merged replay stream, while a simulated fault is
*supposed* to.

A :class:`HostFaultPlan` is JSON-serializable data, like
:class:`~repro.shard.plan.ShardPlan`: it schedules faults at
``(shard, epoch index)`` coordinates, so a plan replays identically
run after run.  Fault kinds:

==========  =================================================================
``kill``    the worker SIGKILLs itself; ``point="pre"`` crashes before any
            epoch work, ``point="post"`` (default) after computing the epoch
            but before replying -- a crash mid-epoch with work lost
``wedge``   the worker stops responding forever (supervisor deadline expiry)
``corrupt`` the worker's reply frame is damaged in flight (checksum reject)
``drop``    the worker finishes the epoch but its reply frame never arrives
``slow``    the reply is delayed by ``delay_s`` host seconds (recovered
            without a retry when the delay stays under the deadline)
==========  =================================================================

Arming semantics make retries convergent: at most one fault is armed
per ``(shard, epoch)`` exchange, and each plan entry fires at most
once per epoch index.  A single entry therefore disturbs the first
attempt and lets the retry run clean; *two* identical entries encode a
double fault (the retry crashes too -- a crash during recovery).
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Optional, Set, Tuple

from repro.errors import ShardError

__all__ = ["EVERY_EPOCH", "HOST_FAULT_KINDS", "HostFault", "HostFaultPlan",
           "HostFaultSchedule", "PRESETS", "chaos_plan", "kill_every_epoch",
           "load_host_faults"]

#: ``epoch`` value meaning "fire at every epoch index".
EVERY_EPOCH = -1

HOST_FAULT_KINDS = frozenset({"kill", "wedge", "corrupt", "drop", "slow"})

_KILL_POINTS = frozenset({"pre", "post"})


class HostFault:
    """One scheduled host fault (validated, JSON-round-trippable)."""

    __slots__ = ("kind", "shard", "epoch", "point", "delay_s")

    def __init__(self, kind: str, shard: int, epoch: int,
                 point: str = "post", delay_s: float = 0.0) -> None:
        self.kind = str(kind)
        self.shard = int(shard)
        self.epoch = int(epoch)
        self.point = str(point)
        self.delay_s = float(delay_s)
        if self.kind not in HOST_FAULT_KINDS:
            raise ShardError(
                f"unknown host fault kind {self.kind!r}; choose from "
                f"{sorted(HOST_FAULT_KINDS)}")
        if self.shard < 0:
            raise ShardError(f"host fault shard must be >= 0: {self.shard}")
        if self.epoch < EVERY_EPOCH:
            raise ShardError(
                f"host fault epoch must be an epoch index or "
                f"{EVERY_EPOCH} (every epoch): {self.epoch}")
        if self.point not in _KILL_POINTS:
            raise ShardError(
                f"host fault point must be one of {sorted(_KILL_POINTS)}: "
                f"{self.point!r}")
        if self.delay_s < 0.0:
            raise ShardError(f"host fault delay_s must be >= 0: "
                             f"{self.delay_s}")
        if self.kind == "slow" and self.delay_s == 0.0:
            raise ShardError("a 'slow' host fault needs a positive delay_s")

    def to_dict(self) -> Dict[str, Any]:
        return {"kind": self.kind, "shard": self.shard, "epoch": self.epoch,
                "point": self.point, "delay_s": self.delay_s}

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "HostFault":
        if not isinstance(data, dict):
            raise ShardError(
                f"host fault must be a dict: {type(data).__name__}")
        return cls(
            kind=data.get("kind", ""),
            shard=data.get("shard", -1),
            epoch=data.get("epoch", EVERY_EPOCH),
            point=data.get("point", "post"),
            delay_s=data.get("delay_s", 0.0),
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        where = "every-epoch" if self.epoch == EVERY_EPOCH else self.epoch
        return f"<HostFault {self.kind} shard={self.shard} epoch={where}>"


class HostFaultPlan:
    """An ordered list of scheduled host faults (pure data)."""

    def __init__(self, faults: Optional[List[HostFault]] = None) -> None:
        self.faults: List[HostFault] = list(faults or [])
        for fault in self.faults:
            if not isinstance(fault, HostFault):
                raise ShardError(
                    f"HostFaultPlan wants HostFault entries, got "
                    f"{type(fault).__name__}")

    def validate_for(self, shards: int) -> None:
        """Reject faults aimed at shards the topology does not have."""
        for fault in self.faults:
            if fault.shard >= shards:
                raise ShardError(
                    f"host fault targets shard {fault.shard} but the run "
                    f"has only {shards} shard(s)")

    def to_dict(self) -> Dict[str, Any]:
        return {"faults": [fault.to_dict() for fault in self.faults]}

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "HostFaultPlan":
        if not isinstance(data, dict):
            raise ShardError(
                f"host fault plan must be a dict: {type(data).__name__}")
        faults = data.get("faults", [])
        if not isinstance(faults, list):
            raise ShardError(
                f"host fault plan 'faults' must be a list: "
                f"{type(faults).__name__}")
        return cls([HostFault.from_dict(entry) for entry in faults])

    @classmethod
    def from_file(cls, path: str) -> "HostFaultPlan":
        try:
            with open(path, "r", encoding="utf-8") as handle:
                data = json.load(handle)
        except OSError as exc:
            raise ShardError(
                f"host fault plan {path!r} cannot be read: {exc}") from exc
        except ValueError as exc:
            raise ShardError(
                f"host fault plan {path!r} is not JSON: {exc}") from exc
        return cls.from_dict(data)

    def __len__(self) -> int:
        return len(self.faults)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<HostFaultPlan faults={len(self.faults)}>"


class HostFaultSchedule:
    """Runtime arming state over a plan (owned by the supervisor).

    ``arm(shard, epoch)`` consumes and returns at most one not-yet-fired
    entry matching the coordinates; each entry fires once per epoch
    index, so a retried epoch only re-faults when the plan holds a
    *second* matching entry (the double-fault encoding).
    """

    def __init__(self, plan: Optional[HostFaultPlan]) -> None:
        self.plan = plan if plan is not None else HostFaultPlan()
        #: (entry index, epoch index) pairs already fired.
        self._consumed: Set[Tuple[int, int]] = set()
        self.armed = 0

    def arm(self, shard: int, epoch: int) -> List[Dict[str, Any]]:
        """Faults to inject into this ``(shard, epoch)`` exchange."""
        for index, fault in enumerate(self.plan.faults):
            if fault.shard != shard:
                continue
            if fault.epoch not in (epoch, EVERY_EPOCH):
                continue
            key = (index, epoch)
            if key in self._consumed:
                continue
            self._consumed.add(key)
            self.armed += 1
            return [fault.to_dict()]
        return []

    def clear_run(self, epoch: int) -> Optional[int]:
        """How many consecutive slices, ``epoch`` first, lie before the
        next slice any shard has an entry on (None: no later entry).
        One command may cover that many: a fault always finds its slice
        at the head of a command, so its coordinates keep their meaning
        however many fault-free slices a window spans."""
        if any(fault.epoch == EVERY_EPOCH for fault in self.plan.faults):
            return 1
        return min((fault.epoch - epoch for fault in self.plan.faults
                    if fault.epoch > epoch), default=None)


# -- presets ------------------------------------------------------------------


def kill_every_epoch(shards: int = 1, shard: int = 0) -> HostFaultPlan:
    """Kill one worker at every epoch barrier (the acceptance plan)."""
    del shards  # same plan at any width; signature matches the presets
    return HostFaultPlan([HostFault("kill", shard=shard, epoch=EVERY_EPOCH)])


def chaos_plan(shards: int = 4) -> HostFaultPlan:
    """A mixed-kind plan touching several shards and fault classes."""
    def pick(index: int) -> int:
        return index % max(1, shards)

    return HostFaultPlan([
        HostFault("kill", shard=pick(0), epoch=0, point="pre"),
        HostFault("kill", shard=pick(1), epoch=2),
        HostFault("corrupt", shard=pick(2), epoch=3),
        HostFault("drop", shard=pick(3), epoch=4),
        HostFault("slow", shard=pick(0), epoch=5, delay_s=0.05),
        HostFault("wedge", shard=pick(1), epoch=6),
    ])


PRESETS = {
    "kill-every-epoch": kill_every_epoch,
    "chaos": chaos_plan,
}


def load_host_faults(spec: str, shards: int) -> HostFaultPlan:
    """Resolve a CLI ``--host-faults`` value: preset name or JSON path."""
    if spec in PRESETS:
        plan = PRESETS[spec](shards)
    else:
        plan = HostFaultPlan.from_file(spec)
    plan.validate_for(shards)
    return plan
