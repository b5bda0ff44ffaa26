"""Fault-tolerant execution of the mp backend: worker supervision.

The bare :class:`~repro.shard.backends.MpBackend` is fail-stop: a
dead, hung, or corrupting worker raises
:class:`~repro.errors.ShardError` and the whole run is lost.
:class:`SupervisedMpBackend` wraps the same one-worker-per-shard
layout in a supervisor that *recovers*:

* every pipe message travels as a sha256-checksummed frame
  (:mod:`repro.shard.frames`), so damaged payloads are detected, not
  applied;
* every exchange doubles as a per-barrier heartbeat bounded by a
  host-time deadline, so a wedged worker is detected, not waited on
  forever;
* on worker crash (SIGKILL/exit), hang (deadline exceeded), or corrupt
  frame, the shard's worker is respawned from the
  :class:`~repro.shard.plan.ShardPlan` and **replayed from the
  committed command log** -- every slice command (a window of epochs
  and the barrier payloads it carried, one entry each) the supervisor
  has already acknowledged.  Because a core's history
  is a pure function of ``(plan, core_id, barrier payloads received)``
  (the sharding determinism argument, ``docs/SHARDING.md``), replay
  reconstructs the state at the last committed epoch barrier
  bit-exactly: barriers are implicit recovery points, for free;
* recovery attempts are bounded by a :class:`SupervisorPolicy` budget
  with exponential host-time backoff.  On exhaustion the run
  **degrades**: all workers are stopped, the full universe is rebuilt
  in-process from the same log, and the run completes on the inline
  path -- legal because engine snapshots deliberately exclude backend
  and shard identity, so the final checkpoint is still bit-identical.

Deterministic worker *exceptions* (a reply carrying a traceback) are
not host faults: retrying deterministic code re-raises the same
error, so they surface immediately as :class:`ShardError` naming the
real cause.

Host faults can be injected deliberately through a
:class:`~repro.shard.hostfaults.HostFaultPlan` -- armed fault
descriptors ride on the epoch command frames and the worker damages
*itself* (SIGKILLs mid-epoch, wedges, corrupts or drops its reply
frame) -- which is how the equivalence tests prove that a run with
workers killed at every barrier still produces a replay stream and
final checkpoint sha256-identical to an undisturbed single-loop run.

This module supervises real operating-system processes, so it is the
one place in the shard layer where *host* time legitimately appears:
deadlines and backoff never touch virtual time and therefore never
perturb the simulated history.
"""

from __future__ import annotations

import os
import signal
import time
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from repro.errors import FrameCorruptError, ShardError
from repro.shard.backends import (
    InlineBackend,
    MpBackend,
    _format_worker_error,
    _reap_process,
)
from repro.shard.frames import (
    corrupt_frame,
    decode_frame,
    encode_frame,
    recv_frame,
    send_frame,
)
from repro.shard.hostfaults import HostFaultPlan, HostFaultSchedule
from repro.shard.plan import ShardPlan, grid_instants
from repro.shard.topology import ShardTopology

__all__ = ["SupervisedMpBackend", "SupervisorPolicy"]


@dataclass(frozen=True)
class SupervisorPolicy:
    """Recovery budget and heartbeat deadlines (host time, never
    virtual time: it supervises real processes, not simulated ones).

    ``max_retries`` bounds recoveries *per command exchange*; once a
    single slice command needs more, the run degrades to the inline
    backend (``degrade=True``) or raises.  ``deadline_s`` is the
    per-exchange heartbeat deadline; a worker that does not reply in
    time is declared hung.  Failed attempt ``k`` backs off
    ``min(backoff_base_s * backoff_factor**(k-1), backoff_max_s)``
    host seconds before the respawn.
    """

    max_retries: int = 3
    deadline_s: float = 30.0
    backoff_base_s: float = 0.05
    backoff_factor: float = 2.0
    backoff_max_s: float = 1.0
    degrade: bool = True

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise ShardError(f"max_retries must be >= 0: {self.max_retries}")
        if self.deadline_s <= 0:
            raise ShardError(f"deadline_s must be positive: {self.deadline_s}")
        if self.backoff_base_s < 0 or self.backoff_max_s < 0:
            raise ShardError("backoff delays must be >= 0")
        if self.backoff_factor < 1:
            raise ShardError(
                f"backoff_factor must be >= 1: {self.backoff_factor}")

    def backoff_for(self, attempt: int) -> float:
        """Host-seconds delay before the ``attempt``-th respawn."""
        if attempt < 1:
            raise ShardError(f"attempt is 1-based: {attempt}")
        return min(self.backoff_base_s * self.backoff_factor ** (attempt - 1),
                   self.backoff_max_s)


# -- worker side --------------------------------------------------------------


def _self_destruct() -> None:  # pragma: no cover - runs in worker process
    """Die the hard way: SIGKILL leaves no chance to flush or reply."""
    sigkill = getattr(signal, "SIGKILL", None)
    if sigkill is not None:
        os.kill(os.getpid(), sigkill)
    os._exit(137)


def _wedge_forever() -> None:  # pragma: no cover - runs in worker process
    """Injected hang: stop serving until the supervisor kills us."""
    while True:
        time.sleep(3600)  # repro: noqa[RPR006] -- injected 'wedge' host fault: this worker must block on wall time forever so the supervisor's heartbeat deadline expires


def _recv_framed(conn: Any) -> Dict[str, Any]:  # pragma: no cover - worker
    """Worker codec, receiving half: one checksummed command frame.
    Armed host-fault descriptors ride on the command and make the
    worker damage itself at the scripted point; a ``kill`` at point
    ``pre`` fires here, before any of the command's work."""
    message = recv_frame(conn)
    for fault in message.get("faults") or []:
        if fault.get("kind") == "kill" and fault.get("point") == "pre":
            _self_destruct()
    return message


def _send_framed(conn: Any, message: Dict[str, Any],
                 reply: Dict[str, Any]) -> None:  # pragma: no cover - worker
    """Worker codec, sending half: frame ``reply``, damaged as the
    faults armed on ``message`` demand -- it may never arrive
    (``drop``), and ``kill``/``wedge`` do not return."""
    frame: Optional[bytes] = encode_frame(reply)
    for fault in message.get("faults") or []:
        kind = fault.get("kind")
        if kind == "kill":  # point "pre" never got this far
            _self_destruct()
        elif kind == "wedge":
            _wedge_forever()
        elif kind == "drop":
            frame = None
        elif kind == "corrupt" and frame is not None:
            frame = corrupt_frame(frame)
        elif kind == "slow":
            time.sleep(float(fault.get("delay_s", 0.0)))  # repro: noqa[RPR006] -- injected 'slow' host fault: delays a real worker process on wall time; virtual time is untouched
    if frame is not None:
        conn.send_bytes(frame)


# -- supervisor side ----------------------------------------------------------


class SupervisedMpBackend(MpBackend):
    """The mp backend under supervision: heartbeats, checksummed
    frames, respawn-and-replay recovery, and inline degradation.

    Drop-in replacement for :class:`~repro.shard.backends.MpBackend`
    behind :class:`~repro.shard.engine.ShardedEngine` -- the same
    surface over a ``_broadcast`` that recovers, hence the same
    bit-exact merged history (host faults included).
    """

    name = "mp-supervised"

    _worker_codec = (_recv_framed, _send_framed)

    def __init__(self, plan: ShardPlan, topology: ShardTopology,
                 policy: Optional[SupervisorPolicy] = None,
                 host_faults: Optional[HostFaultPlan] = None,
                 telemetry: Any = None, obs: bool = False,
                 flight: bool = False) -> None:
        if host_faults is not None:
            host_faults.validate_for(topology.shards)
        self.policy = policy if policy is not None else SupervisorPolicy()
        self.schedule = HostFaultSchedule(host_faults)
        self.telemetry = telemetry
        #: Committed (fully acknowledged) slice commands, in issue order
        #: -- the recovery log, one entry per window.  Each keeps the
        #: *full* payload list of the barrier it carried, so both
        #: per-shard replay and inline degradation can regroup it.
        self._log: List[Dict[str, Any]] = []
        #: Index of the slice currently executing: every epoch and
        #: every inclusive stop counts one, however many a command
        #: covers (host faults are scheduled in these coordinates, and
        #: a command's faults are those of its first slice).
        self._epoch_index = -1
        #: Virtual time of the current command (observability only).
        self._time = 0.0

        # -- recovery bookkeeping (observability; not canonical state) --
        self.events: List[Dict[str, Any]] = []
        self.restarts = [0] * topology.shards
        self.retries = [0] * topology.shards
        self.degraded = False
        self.degrade_reason: Optional[str] = None
        #: Where every command goes once the run has degraded.
        self._inline: Optional[InlineBackend] = None
        super().__init__(plan, topology, obs=obs, flight=flight)

    # -- worker lifecycle -----------------------------------------------------

    def _discard_worker(self, shard: int) -> None:
        """Get rid of a worker whose state is already written off.

        SIGKILL first (before the pipe closes, so every discarded
        worker dies the same way), reap second: waiting for the worker
        to notice its closed pipe does not work under ``fork``, where
        later-spawned siblings inherit the parent's end of earlier
        workers' pipes and a live worker therefore never reads EOF."""
        self._workers[shard].kill()
        try:
            self._conns[shard].close()
        except OSError:  # pragma: no cover - already torn down
            pass
        _reap_process(self._workers[shard], self.close_timeout_s)

    def _respawn_worker(self, shard: int, attempt: int) -> None:
        self._discard_worker(shard)
        backoff = self.policy.backoff_for(attempt)
        if backoff > 0:
            time.sleep(backoff)  # repro: noqa[RPR006] -- supervision backoff is host-level by design: it paces real process respawns and never touches virtual time, so the simulated history is unperturbed
        self._workers[shard], self._conns[shard] = self._spawn_worker(
            shard, self.plan.to_dict())
        self.restarts[shard] += 1
        self._event("worker.restart", shard=shard, attempt=attempt)

    # -- observability --------------------------------------------------------

    def _event(self, kind: str, shard: Optional[int] = None,
               **attrs: Any) -> None:
        entry: Dict[str, Any] = {
            "kind": kind, "time": self._time, "epoch": self._epoch_index,
            "shard": shard,
        }
        entry.update(attrs)
        self.events.append(entry)
        if self.telemetry is not None:
            labels = None if shard is None else {"shard": str(shard)}
            self.telemetry.registry.counter(
                f"shard.{kind}", labels,
                help="supervised shard backend recovery event").inc()
            self.telemetry.tracer.event(
                track="supervisor", name=f"shard.{kind}", category="shard",
                time=self._time,
                attrs={key: value for key, value in entry.items()
                       if key not in ("kind", "time")})

    def recovery_summary(self) -> Dict[str, Any]:
        """Recovery counters and the full event log (observability)."""
        return {
            "degraded": self.degraded,
            "degrade_reason": self.degrade_reason,
            "restarts": list(self.restarts),
            "retries": list(self.retries),
            "faults_armed": self.schedule.armed,
            "events": [dict(event) for event in self.events],
        }

    # -- framed exchanges with recovery ---------------------------------------

    def _post(self, shard: int, message: Dict[str, Any]) -> None:
        send_frame(self._conns[shard], message)

    def _send(self, shard: int, message: Dict[str, Any]) -> bool:
        try:
            self._post(shard, message)
            return True
        except (OSError, ValueError):
            return False

    def _armed(self, shard: int, message: Dict[str, Any],
               arm: bool) -> Dict[str, Any]:
        """``message`` plus the host faults due on this shard now
        (consumed on arming, so a retried command runs clean)."""
        faults = self.schedule.arm(shard, self._epoch_index) if arm else []
        if faults:
            self._event("fault.armed", shard=shard, fault=faults[0]["kind"])
        return {**message, "faults": faults}

    def _await(self, shard: int) -> Tuple[str, Any]:
        """Wait for one framed reply under the heartbeat deadline.

        Returns ``("ok", reply)`` or a failure classification:
        ``hang`` (deadline expired), ``crash`` (pipe died), or
        ``corrupt`` (frame failed its checksum).  A structured worker
        error is deterministic, not a host fault, and raises."""
        conn = self._conns[shard]
        deadline = self.policy.deadline_s
        try:
            if not conn.poll(deadline):
                return "hang", f"no heartbeat within {deadline:g}s"
            raw = conn.recv_bytes()
        except (EOFError, OSError):
            return "crash", "pipe closed"
        try:
            reply = decode_frame(raw)
        except FrameCorruptError as exc:
            return "corrupt", str(exc)
        if "error" in reply:
            raise ShardError(_format_worker_error(shard, reply["error"]))
        return "ok", reply

    def _budget_exhausted(self, shard: int, failures: int, status: str,
                          detail: Any) -> bool:
        """True when the caller should stop retrying because the run
        degraded; raises instead when degradation is disabled."""
        if failures <= self.policy.max_retries:
            return False
        reason = (f"shard {shard} exhausted its retry budget "
                  f"({self.policy.max_retries}) at epoch "
                  f"{self._epoch_index}; last failure {status}: {detail}")
        if self.policy.degrade:
            self._degrade(reason)
            return True
        raise ShardError(reason)

    def _replay_into_worker(self, shard: int) -> Tuple[bool, str]:
        """Re-execute the committed log in a fresh worker.

        Replies (including re-emitted barrier payloads) are discarded:
        they were already committed.  Faults are never armed during
        replay -- double faults are encoded as a second plan entry
        firing on the *retried* command instead."""
        for command in self._log:
            if not self._send(shard, self._shard_messages(command)[shard]):
                return False, "crash: pipe closed during replay"
            status, detail = self._await(shard)
            if status != "ok":
                return False, f"{status} during replay: {detail}"
        return True, ""

    def _finish_exchange(self, shard: int, message: Dict[str, Any],
                         arm: bool, in_flight: bool,
                         ) -> Optional[Dict[str, Any]]:
        """Drive one shard's exchange to a committed reply, recovering
        as needed; None means the run degraded (reply is moot)."""
        failures = 0
        need_recovery = False
        while True:
            if need_recovery:
                self._respawn_worker(shard, failures)
                ok, detail = self._replay_into_worker(shard)
                if not ok:
                    failures += 1
                    self.retries[shard] += 1
                    self._event("fault.detected", shard=shard,
                                failure="replay", detail=detail,
                                attempt=failures)
                    if self._budget_exhausted(shard, failures, "replay",
                                              detail):
                        return None
                    continue
                need_recovery = False
                self._event("epoch.retry", shard=shard,
                            cmd=message["cmd"], attempt=failures)
            if in_flight:
                in_flight = False
                status, value = self._await(shard)
            elif self._send(shard, self._armed(shard, message, arm)):
                status, value = self._await(shard)
            else:
                status, value = "crash", "pipe closed on send"
            if status == "ok":
                return value
            failures += 1
            self.retries[shard] += 1
            self._event("fault.detected", shard=shard, failure=status,
                        detail=str(value), attempt=failures,
                        cmd=message["cmd"])
            if self._budget_exhausted(shard, failures, status, value):
                return None
            need_recovery = True

    def window_limit(self) -> Optional[int]:
        """A command is armed with the faults of its first slice only,
        so it stops short of the next slice a fault is scheduled on."""
        if self._inline is not None:
            return None
        return self.schedule.clear_run(self._epoch_index + 1)

    def _broadcast(self, message: Dict[str, Any]) -> List[Dict[str, Any]]:
        """Supervised fan-out: optimistic concurrent first attempt,
        then per-shard recovery.  A run that has degraded -- before or
        during this command -- executes it on the inline backend."""
        if self._inline is not None:
            return self._inline._broadcast(message)
        arm = message["cmd"] == "epoch"
        if arm:
            self._epoch_index += 1
            self._time = message["horizon"]
        messages = self._shard_messages(message)
        # Send to every worker before gathering any reply, so the
        # shards genuinely run concurrently.
        in_flight = [self._send(shard, self._armed(shard, mine, arm))
                     for shard, mine in enumerate(messages)]
        replies: List[Dict[str, Any]] = []
        for shard, mine in enumerate(messages):
            reply = self._finish_exchange(shard, mine, arm, in_flight[shard])
            if reply is None:  # degraded mid-command; partial replies moot
                return self._inline._broadcast(message)
            replies.append(reply)
        if arm:
            logged = dict(message)
            if message["barrier"] is not None:
                logged["barrier"] = [dict(payload)
                                     for payload in message["barrier"]]
            self._log.append(logged)
            # The command's slices after its first: epochs, then a stop.
            epochs = sum(1 for _ in grid_instants(
                message["start"], message["horizon"], message["epoch_ms"]))
            self._epoch_index += epochs + message["inclusive"] - 1
        return replies

    # -- degradation ----------------------------------------------------------

    def _degrade(self, reason: str) -> None:
        """Migrate the entire run to the inline backend mid-run.

        Discards every worker, builds an :class:`InlineBackend` (all
        cores in-process) and replays the committed command log
        through it.  Legal because engine snapshots exclude
        backend/shard identity; bit-exact because the log *is* the
        universe's input history.  ``local_kernels()`` stays empty
        like the bare mp backend's, so recorder fan-out does not
        depend on backend fate."""
        self._event("backend.degrade", detail=reason)
        self.degraded = True
        self.degrade_reason = reason
        for shard in range(len(self._workers)):
            self._discard_worker(shard)
        self._workers, self._conns = [], []
        self._inline = InlineBackend(self.plan, self.topology, obs=self.obs,
                                     flight=self.flight)
        for command in self._log:
            self._inline._broadcast(command)

    def close(self) -> None:
        if self._inline is not None:
            self._inline.close()
        super().close()
