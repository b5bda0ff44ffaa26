"""Execution backends: single-loop oracle, inline, and multiprocessing.

All three drive the same :class:`~repro.shard.core.ShardCore` objects
through the same slice-command protocol and differ *only* in where and
in what interleaving core events execute:

* ``single`` -- one loop repeatedly fires the globally earliest event
  (ties broken by core id).  This is the reference: it is
  observationally the classic single-loop engine, so proving
  ``inline == single`` and ``mp == single`` proves sharded execution
  equals the unsharded engine.
* ``inline`` -- cores run sequentially, one whole epoch per core, in
  core order.  Same process, no parallelism; the default.
* ``mp`` -- one persistent worker process per shard; each worker
  rebuilds its cores from the JSON plan and exchanges only slice
  commands and barrier payloads with the parent (never objects), as
  checksummed frames under a deadline, and a lost worker is respawned
  and replayed (:class:`MpBackend`).  Measured by ``bench/``'s
  ``shard_spin_mp`` workload as ``shard.mp_over_inline`` (mp wall /
  inline wall, two workers pinned to two CPUs): 0.70-0.97 while every
  epoch cost two pipe round-trips, 0.48-0.62 once a quiet window cost
  one; the break-even grid is in ``docs/SHARDING.md`` section 3.

One command advances history -- the **slice command** ``epoch``: it
carries the barrier due where the cores stand (``barrier``: this
shard's payloads, or None when none is due), a ``horizon`` that may lie
several instants of the ``epoch_ms`` grid away, and whether to stop
there ``inclusive``-ly.  The cores apply the carried barrier, then run
epoch by epoch, barriering *themselves* at every instant the parent
will not -- which is legal only while nothing is emitted there, and is
trapped otherwise (the parent's lookahead,
:meth:`~repro.shard.plan.ShardPlan.quiet_horizon`, is checked, never
trusted) -- and reply once with what the last epoch emitted.  A barrier
therefore never costs a round-trip of its own, and a one-epoch window
*is* the classic epoch/barrier schedule, through the same code.  A
command whose horizon is a rebalance instant also asks for ``loads``:
each core's :meth:`~repro.shard.core.ShardCore.load`, folded by the
engine into the moves the next command carries.

The backend surface (``run_epoch`` / ``collect`` / ``barrier`` /
``snapshots`` ...) is written once, over a single seam:
``_broadcast(message) -> replies`` hands one command to every shard
and returns their replies.  :func:`_execute_command` is the only
interpreter of those commands, wherever the cores live.

Confluence is why the interleavings agree: cores share no state, and
every cross-core effect is a JSON payload applied at a barrier in
canonical ``(target, src, seq)`` order, so any schedule of the
*within-epoch* events produces the same per-core histories.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import select
import signal
import time
import traceback
from collections import deque
from dataclasses import dataclass
from typing import Any, Callable, Deque, Dict, List, Optional, Tuple

from repro.errors import FrameCorruptError, ShardError
from repro.shard.core import ShardCore
from repro.shard.frames import (corrupt_frame, decode_frame, encode_frame,
                                recv_frame, send_frame)
from repro.shard.hostfaults import HostFaultPlan, HostFaultSchedule
from repro.shard.plan import (GRID_EPS, ShardPlan, finite, grid_instants,
                              integer, on_grid)
from repro.shard.router import ShardRouter
from repro.shard.topology import ShardTopology

__all__ = ["BACKENDS", "InlineBackend", "MpBackend", "SingleBackend",
           "SupervisorPolicy", "make_backend"]

#: ``collect``'s ``want`` -> the pure per-core read that answers it.
_COLLECT_VIEWS = {"snapshot": ShardCore.snapshot_state,
                  "stream": ShardCore.stream_entries,
                  "obs": ShardCore.obs_dump}


def _group_payloads(payloads: List[Dict[str, Any]],
                    key: Callable[[int], int] = int
                    ) -> Dict[int, List[Dict[str, Any]]]:
    """Barrier payloads grouped by ``key(target core)`` -- by the
    target core itself unless told otherwise -- in arrival order."""
    grouped: Dict[int, List[Dict[str, Any]]] = {}
    for payload in payloads:
        grouped.setdefault(key(payload["target"]), []).append(payload)
    return grouped


def _execute_command(cores: Dict[int, ShardCore], router: ShardRouter,
                     message: Dict[str, Any],
                     obs: bool = False) -> Dict[str, Any]:
    """Run one command against the cores living in this process.

    The only interpreter: the inline backend, every worker main and a
    degraded mp run all come through here, so the command semantics
    -- and therefore the produced histories -- cannot drift between
    the in-process and the worker protocol.  ``epoch`` is the slice
    command (module docstring) and the only one that advances history,
    hence the only one the mp backend logs for replay.  With ``obs`` its reply piggybacks one list of delta-state
    obs frames (:meth:`ShardCore.obs_frame`, one per core) per epoch it
    ran, plus one for an inclusive stop; each frame moves its core's
    delta baseline, which recovery rebuilds with the rest of the core
    by replaying the log.  ``collect`` is not logged and must therefore
    stay a pure read; it answers one question per call -- ``want``
    names the single per-core view (``snapshot`` / ``stream`` / ``obs``
    span dump) the reply carries.
    """
    command = message["cmd"]
    mine = [cores[core_id] for core_id in sorted(cores)]
    if command == "epoch":
        return _execute_slice(mine, router, message, obs)
    if command == "collect":
        want = message["want"]
        read = _COLLECT_VIEWS[want]
        return {"cores": [{"core": core.core_id, want: read(core)}
                          for core in mine]}
    if command == "stop":
        return {"ok": True, "stop": True}
    raise ShardError(f"unknown worker command {command!r}")


def _execute_slice(mine: List[ShardCore], router: ShardRouter,
                   message: Dict[str, Any], obs: bool) -> Dict[str, Any]:
    """The slice command: carried barrier, epochs to the horizon with a
    barrier of the cores' own wherever the parent holds none, then the
    inclusive stop if asked for one."""
    start, horizon = message["start"], message["horizon"]
    step, inclusive = message["epoch_ms"], message["inclusive"]
    if not on_grid(horizon, step):
        raise ShardError(
            f"slice horizon {horizon} is not on the {step}ms epoch grid "
            f"the command carries")
    if message["barrier"] is not None:
        grouped = _group_payloads(message["barrier"])
        for core in mine:
            core.apply_barrier(start, grouped.get(core.core_id, []))
    emitted: List[Dict[str, Any]] = []
    frames: List[List[Dict[str, Any]]] = []
    for end in grid_instants(start, horizon, step):
        for core in mine:
            core.run_epoch(end)
        emitted = router.drain()
        if obs:
            frames.append([core.obs_frame(end) for core in mine])
        if end < horizon - GRID_EPS or inclusive:
            # The parent merges only what the *last* epoch emits: a
            # payload found here would reach its target a barrier late.
            if emitted:
                first = emitted[0]
                raise ShardError(
                    f"core {first['src']} emitted a {first['kind']!r} "
                    f"payload in the epoch ending at {end}ms, inside "
                    f"the slice {start}..{horizon}ms the lookahead "
                    f"called quiet; no barrier is held there to "
                    f"deliver it")
            for core in mine:
                core.apply_barrier(end, [])
    if inclusive:
        for core in mine:
            core.run_inclusive(horizon)
        emitted = router.drain()
        if obs:
            frames.append([core.obs_frame(horizon) for core in mine])
    reply: Dict[str, Any] = {"payloads": emitted}
    if obs:
        reply["obs"] = frames
    if message.get("loads"):
        reply["loads"] = [core.load() for core in mine]
    return reply


class _Backend:
    """The backend surface, written once over ``_broadcast``."""

    def __init__(self, plan: ShardPlan, topology: ShardTopology,
                 obs: bool = False, flight: bool = False) -> None:
        self.plan = plan
        self.topology = topology
        self.obs = bool(obs)
        #: Armed flight recorder: the cores' obs frames carry rings.
        self.flight = bool(flight)
        #: The instant every core stands at: the last slice's horizon.
        self._now = 0.0
        #: Payloads of the barrier due at ``_now``, riding the next
        #: slice command; None when none is due (start, after a stop).
        self._due: Optional[List[Dict[str, Any]]] = None
        self._collected: List[Dict[str, Any]] = []
        #: The cores' reports of the last slice ending at a rebalance
        #: instant, until the engine reads them.
        self._loads: List[Dict[str, Any]] = []
        #: Unread obs frames, one list per epoch (or stop) observed.
        self._obs_frames: Deque[List[Dict[str, Any]]] = deque()

    def _broadcast(self, message: Dict[str, Any]) -> List[Dict[str, Any]]:
        """Hand ``message`` to every shard; one reply per shard."""
        raise NotImplementedError

    def window_limit(self) -> Optional[int]:
        """Most epochs the next slice command may cover (None: as many
        as the plan's lookahead allows)."""
        return None

    def _run_slice(self, horizon: float, epoch_ms: Optional[float],
                   inclusive: bool) -> None:
        message = {
            "cmd": "epoch", "start": self._now, "barrier": self._due,
            "horizon": horizon, "inclusive": inclusive,
            "epoch_ms": self.plan.epoch_ms if epoch_ms is None else epoch_ms}
        rebalance = self.plan.rebalance_ms
        if rebalance and not inclusive and on_grid(horizon, rebalance):
            message["loads"] = True
        replies = self._broadcast(message)
        self._now = horizon
        self._due = None if inclusive else []
        for reply in replies:
            self._collected.extend(reply["payloads"])
            self._loads.extend(reply.get("loads", ()))
        # One entry per epoch, every shard's frames of that epoch in it.
        for shard_frames in zip(*(reply.get("obs", ()) for reply in replies)):
            self._obs_frames.append(
                [frame for frames in shard_frames for frame in frames])

    def run_epoch(self, horizon: float,
                  epoch_ms: Optional[float] = None) -> None:
        """Run every core to just before ``horizon`` -- one command and
        one reply however many ``epoch_ms`` instants lie between (the
        plan's grid when not given); the barrier there is then due."""
        self._run_slice(horizon, epoch_ms, inclusive=False)

    def run_inclusive(self, until: float,
                      epoch_ms: Optional[float] = None) -> None:
        """Stop point: as ``run_epoch``, then the events at exactly
        ``until`` behind a barrier of the cores' own."""
        self._run_slice(until, epoch_ms, inclusive=True)

    def collect(self) -> List[Dict[str, Any]]:
        """What the last slice's final epoch (or stop) emitted."""
        out, self._collected = self._collected, []
        return out

    def loads(self) -> List[Dict[str, Any]]:
        """The cores' reports at the rebalance instant the last slice
        ended on, in core order (empty anywhere else)."""
        out, self._loads = self._loads, []
        return sorted(out, key=lambda load: load["core"])

    def collect_obs(self, time: float) -> List[Dict[str, Any]]:
        """The per-core delta-state obs frames of the oldest epoch (or
        stop) not read yet, in core order: what crossed the seam, no
        more (plain data by construction -- a pipe or a JSON round
        trip).  Each holds what changed on its core since its previous
        frame; a recovered worker replayed the committed log first, so
        a retried command returns the same deltas."""
        frames = self._obs_frames.popleft() if self._obs_frames else []
        return sorted(frames, key=lambda frame: frame["core"])

    def barrier(self, time: float, payloads: List[Dict[str, Any]]) -> None:
        """Hand over the canonical payloads of the barrier at ``time``,
        where the cores stand; they ride the next slice command."""
        if time != self._now:
            raise ShardError(
                f"barrier at {time}ms, but the cores stand at "
                f"{self._now}ms: a barrier follows the slice it closes")
        self._due = payloads

    # -- observation ----------------------------------------------------------

    def _collect_view(self, want: str) -> List[Any]:
        """One per-core view (see ``_COLLECT_VIEWS``), in core order."""
        replies = self._broadcast({"cmd": "collect", "want": want})
        cores = [entry for reply in replies for entry in reply["cores"]]
        cores.sort(key=lambda entry: entry["core"])
        return [entry[want] for entry in cores]

    def obs_dumps(self) -> List[Dict[str, Any]]:
        """Per-core span dumps for trace stitching."""
        return self._collect_view("obs") if self.obs else []

    def snapshots(self) -> List[dict]:
        return self._collect_view("snapshot")

    def streams(self) -> List[List[Dict[str, Any]]]:
        return self._collect_view("stream")

    def local_kernels(self) -> List[Any]:
        """Kernels living in the parent process (none by default)."""
        return []

    def recovery_summary(self) -> Dict[str, Any]:
        """Host-fate annex: recovery counters and events (observability;
        not canonical state).  Only mp workers have a fate to report."""
        return {"degraded": False, "degrade_reason": None, "restarts": [],
                "retries": [], "faults_armed": 0, "events": []}


class InlineBackend(_Backend):
    """Cores run sequentially, a whole epoch at a time, in core order."""

    name = "inline"

    def __init__(self, plan: ShardPlan, topology: ShardTopology,
                 obs: bool = False, flight: bool = False) -> None:
        super().__init__(plan, topology, obs=obs, flight=flight)
        self.router = ShardRouter()
        self.router.install()
        self.cores = [ShardCore(core_id, plan, self.router, obs=self.obs,
                                flight=self.flight)
                      for core_id in range(plan.cores)]

    def _broadcast(self, message: Dict[str, Any]) -> List[Dict[str, Any]]:
        self.router.install()
        reply = _execute_command(self.router.cores, self.router, message,
                                 obs=self.obs)
        # Obs data is JSON-round-tripped like barrier payloads, so
        # in-process and mp runs aggregate byte-identical data.
        if "obs" in reply:
            reply["obs"] = json.loads(json.dumps(reply["obs"]))
        elif message.get("want") == "obs":
            for entry in reply["cores"]:
                entry["obs"] = json.loads(json.dumps(entry["obs"]))
        return [reply]

    def local_kernels(self) -> List[Any]:
        return [core.kernel for core in self.cores]

    def close(self) -> None:
        self.router.uninstall()


class SingleBackend(InlineBackend):
    """The oracle: globally time-ordered interleaving of all cores."""

    name = "single"

    def _earliest(self, limit: float, inclusive: bool) -> Optional[ShardCore]:
        best = None
        best_time = None
        for core in self.cores:
            next_time = core.loop.peek_time()
            if next_time is None:
                continue
            if inclusive:
                if next_time > limit + GRID_EPS:
                    continue
            elif next_time >= limit - GRID_EPS:
                continue
            if best_time is None or next_time < best_time:
                best, best_time = core, next_time
        return best

    def window_limit(self) -> Optional[int]:
        # The reference takes no lookahead's word: it barriers at every
        # grid instant, so an unsound window shows up as a digest
        # mismatch against it instead of being shared with it.
        return 1

    def _broadcast(self, message: Dict[str, Any]) -> List[Dict[str, Any]]:
        # Fire the slice's events in global time order first; the
        # sequential interpreter then finds none left inside the slice,
        # so all it does is what every backend does at a slice end:
        # advance the clocks at a stop point and build the reply.
        if message["cmd"] == "epoch":
            if message["barrier"] is not None:
                # The carried barrier's applications are events of this
                # slice: on the agenda before anything fires.
                super()._broadcast({**message, "horizon": message["start"],
                                    "inclusive": False})
                message = {**message, "barrier": None}
            self.router.install()
            while True:
                core = self._earliest(message["horizon"],
                                      message["inclusive"])
                if core is None:
                    break
                core.step_one()
        return super()._broadcast(message)


# -- multiprocessing backend --------------------------------------------------

#: The longest wait ``poll(2)`` takes (its timeout is an int of ms).
_MAX_WAIT_S = (2 ** 31 - 1) / 1000.0


@dataclass(frozen=True)
class SupervisorPolicy:
    """The mp backend's recovery budget and exchange deadline (host
    time, never virtual time: it supervises real processes, not
    simulated ones).

    ``max_retries`` bounds recoveries *per command exchange*; once a
    single slice command needs more, the run degrades to the inline
    backend (``degrade=True``) or raises.  ``deadline_s`` bounds each
    exchange -- one command and its reply, however many epochs the
    command's window covers; a worker that does not reply in time is
    declared hung.  Failed attempt ``k`` backs off
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
        if integer("max_retries", self.max_retries) < 0:
            raise ShardError(f"max_retries must be >= 0: {self.max_retries}")
        if not 0 < finite("deadline_s", self.deadline_s) <= _MAX_WAIT_S:
            raise ShardError(f"deadline_s must be positive and at most "
                             f"{_MAX_WAIT_S:g}: {self.deadline_s}")
        if (finite("backoff_base_s", self.backoff_base_s) < 0
                or finite("backoff_max_s", self.backoff_max_s) < 0):
            raise ShardError("backoff delays must be >= 0")
        if finite("backoff_factor", self.backoff_factor) < 1:
            raise ShardError(
                f"backoff_factor must be >= 1: {self.backoff_factor}")

    def backoff_for(self, attempt: int) -> float:
        """Host-seconds delay before the ``attempt``-th respawn."""
        if attempt < 1:
            raise ShardError(f"attempt is 1-based: {attempt}")
        return min(self.backoff_base_s * self.backoff_factor ** (attempt - 1),
                   self.backoff_max_s)


def _reap_process(process: Any, timeout: float) -> bool:
    """Join ``process``, escalating terminate -> kill; True when dead."""
    process.join(timeout=timeout)
    if process.is_alive():
        process.terminate()
        process.join(timeout=timeout)
    if process.is_alive():
        process.kill()
        process.join(timeout=timeout)
    return not process.is_alive()


def _readable(conn: Any, timeout_s: float) -> bool:
    """Whether ``conn`` holds a reply (or EOF) within ``timeout_s``:
    ``Connection.poll``'s answer without the selector it builds per
    call, on the latency path of every exchange."""
    poller = select.poll()
    poller.register(conn.fileno(), select.POLLIN)
    return bool(poller.poll(timeout_s * 1000.0))


def _build_worker_cores(plan_dict: Dict[str, Any], core_ids: List[int],
                        sanitize: bool, obs: bool = False,
                        flight: bool = False) -> tuple:
    """(Re)build a shard's universe inside a worker process."""
    if sanitize:
        os.environ["REPRO_SANITIZE"] = "1"
        from repro.analysis.sanitizer import install_autosanitize

        install_autosanitize()
    plan = ShardPlan.from_dict(plan_dict)
    router = ShardRouter()
    router.install()
    cores = {core_id: ShardCore(core_id, plan, router, obs=obs,
                                flight=flight)
             for core_id in sorted(core_ids)}
    return cores, router


def _describe_error(exc: BaseException, command: Optional[str]) -> dict:
    """Worker-side failure description shipped back over the pipe, so
    recovery logs and ShardError messages name the real cause."""
    return {
        "type": type(exc).__name__,
        "message": str(exc),
        "traceback": traceback.format_exc(),
        "cmd": command,
    }


def _format_worker_error(shard: int, error: Dict[str, Any]) -> str:
    """Render a worker's structured error reply."""
    command = error.get("cmd")
    where = f" running {command!r}" if command else ""
    return (f"shard worker {shard} failed{where}: "
            f"{error.get('type', 'Exception')}: "
            f"{error.get('message', '')}\n"
            f"{error.get('traceback', '')}")


def _self_destruct() -> None:  # pragma: no cover - runs in worker process
    """Die the hard way: SIGKILL leaves no chance to flush or reply."""
    sigkill = getattr(signal, "SIGKILL", None)
    if sigkill is not None:
        os.kill(os.getpid(), sigkill)
    os._exit(137)


def _wedge_forever() -> None:  # pragma: no cover - runs in worker process
    """Injected hang: stop serving until the parent kills us."""
    while True:
        time.sleep(3600)  # repro: noqa[RPR006] -- injected 'wedge' host fault: this worker must block on wall time forever so the parent's exchange deadline expires


def _recv_command(conn: Any) -> Dict[str, Any]:  # pragma: no cover - worker
    """One checksummed command frame.  Armed host-fault descriptors
    ride on the command and make the worker damage itself at the
    scripted point; a ``kill`` at point ``pre`` fires here, before any
    of the command's work."""
    message = recv_frame(conn)
    for fault in message.get("faults", ()):
        if fault["kind"] == "kill" and fault["point"] == "pre":
            _self_destruct()
    return message


def _send_reply(conn: Any, message: Dict[str, Any],
                reply: Dict[str, Any]) -> None:  # pragma: no cover - worker
    """Frame ``reply``, damaged as the faults armed on ``message``
    demand -- it may never arrive (``drop``), and ``kill``/``wedge``
    do not return."""
    frame: Optional[bytes] = encode_frame(reply)
    for fault in message.get("faults", ()):
        kind = fault["kind"]
        if kind == "kill":  # point "pre" never got this far
            _self_destruct()
        elif kind == "wedge":
            _wedge_forever()
        elif kind == "drop":
            frame = None
        elif kind == "corrupt" and frame is not None:
            frame = corrupt_frame(frame)
        elif kind == "slow":
            time.sleep(fault["delay_s"])  # repro: noqa[RPR006] -- injected 'slow' host fault: delays a real worker process on wall time; virtual time is untouched
    if frame is not None:
        conn.send_bytes(frame)


def _worker_main(conn: Any, plan_dict: Dict[str, Any],
                 core_ids: List[int], sanitize: bool, obs: bool,
                 flight: bool) -> None:
    """Worker entry point: rebuild this shard's cores from the plan
    and serve slice commands until told to stop.

    Module-level (not a closure) so the function is importable under
    the ``spawn`` start method as well as ``fork``.  Workers carry
    their own router and -- when the parent runs under
    ``REPRO_SANITIZE=1`` -- their own race sanitizer, so barrier
    handoffs are sanitized inside every process.
    """
    command: Optional[str] = None
    try:
        cores, router = _build_worker_cores(plan_dict, core_ids, sanitize,
                                            obs=obs, flight=flight)
        while True:
            message = _recv_command(conn)
            command = message.get("cmd")
            reply = _execute_command(cores, router, message, obs=obs)
            _send_reply(conn, message, reply)
            if reply.get("stop"):
                break
    except EOFError:  # parent went away (or respawned us): done
        pass
    except BaseException as exc:
        # Includes a damaged *incoming* frame: the command cannot be
        # trusted, so report and stop serving -- the parent treats the
        # dying worker as a host fault.
        try:
            _send_reply(conn, {}, {"error": _describe_error(exc, command)})
        except (OSError, ValueError):
            pass
    finally:
        conn.close()


class MpBackend(_Backend):
    """One persistent worker process per shard, supervised.

    Every pipe message is a sha256-checksummed frame
    (:mod:`repro.shard.frames`), so damaged bytes are detected, not
    applied; every exchange is bounded by the policy's host-time
    deadline, so a wedged worker is detected, not waited on forever.
    On a worker crash (SIGKILL/exit), hang or corrupt frame the
    shard's worker is respawned from the plan and **replayed from the
    committed command log** -- every slice command (a window of epochs
    and the barrier payloads it carried) already acknowledged.  A
    core's history is a pure function of ``(plan, core id, barrier
    payloads received)`` (``docs/SHARDING.md`` section 6), so replay
    rebuilds the state at the last committed barrier bit-exactly.
    Recoveries per exchange are bounded by a :class:`SupervisorPolicy`
    with exponential backoff; past the budget the run **degrades**:
    every worker is stopped, the whole universe is rebuilt in-process
    from the same log, and the run finishes on the inline path.

    A worker *exception* (a reply carrying a traceback) is not a host
    fault: deterministic code re-raises on every retry, so it surfaces
    at once as a :class:`ShardError` naming the real cause.  Host
    faults can be injected deliberately through a
    :class:`~repro.shard.hostfaults.HostFaultPlan`: armed descriptors
    ride on the command frames and the worker damages *itself*.

    This class supervises real operating-system processes, so it is
    the one place in the shard layer where *host* time appears:
    deadlines and backoff never touch virtual time.
    """

    name = "mp"

    #: Host seconds granted to each shutdown stage (stop ack, join,
    #: terminate, kill); a class attribute so tests can shrink it.
    close_timeout_s = 5.0

    def __init__(self, plan: ShardPlan, topology: ShardTopology,
                 obs: bool = False, flight: bool = False,
                 policy: Optional[SupervisorPolicy] = None,
                 host_faults: Optional[HostFaultPlan] = None,
                 telemetry: Any = None) -> None:
        super().__init__(plan, topology, obs=obs, flight=flight)
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
        self._context = multiprocessing.get_context()
        self._sanitize = bool(os.environ.get("REPRO_SANITIZE"))
        self._workers: List[Any] = []
        self._conns: List[Any] = []
        plan_dict = plan.to_dict()
        for shard in range(topology.shards):
            process, conn = self._spawn_worker(shard, plan_dict)
            self._workers.append(process)
            self._conns.append(conn)

    # -- worker lifecycle -----------------------------------------------------

    def _spawn_worker(self, shard: int,
                      plan_dict: Dict[str, Any]) -> Tuple[Any, Any]:
        parent_conn, child_conn = self._context.Pipe()
        process = self._context.Process(
            target=_worker_main,
            args=(child_conn, plan_dict, self.topology.cores_of(shard),
                  self._sanitize, self.obs, self.flight),
            daemon=True,
            name=f"repro-shard-{shard}",
        )
        process.start()
        child_conn.close()
        return process, parent_conn

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
                help="mp shard backend recovery event").inc()
            self.telemetry.tracer.event(
                track="supervisor", name=f"shard.{kind}", category="shard",
                time=self._time,
                attrs={key: value for key, value in entry.items()
                       if key not in ("kind", "time")})

    def recovery_summary(self) -> Dict[str, Any]:
        # A per-shard counter is listed only once a shard counted one,
        # so an undisturbed run reports what every backend does.
        return {
            "degraded": self.degraded,
            "degrade_reason": self.degrade_reason,
            "restarts": list(self.restarts) if any(self.restarts) else [],
            "retries": list(self.retries) if any(self.retries) else [],
            "faults_armed": self.schedule.armed,
            "events": [dict(event) for event in self.events],
        }

    # -- framed exchanges with recovery ---------------------------------------

    def _shard_messages(self, message: Dict[str, Any]
                        ) -> List[Dict[str, Any]]:
        """Each shard's copy of ``message``; a carried barrier's
        payloads go only to the shard hosting their target core."""
        shards = range(self.topology.shards)
        if message.get("barrier") is None:
            return [message for _ in shards]
        grouped = _group_payloads(message["barrier"], self.topology.shard_of)
        return [{**message, "barrier": grouped.get(shard, [])}
                for shard in shards]

    def _send(self, shard: int, message: Dict[str, Any]) -> bool:
        try:
            send_frame(self._conns[shard], message)
            return True
        except (OSError, ValueError):
            return False

    def _armed(self, shard: int, message: Dict[str, Any],
               arm: bool) -> Dict[str, Any]:
        """``message`` plus the host faults due on this shard now
        (consumed on arming, so a retried command runs clean)."""
        faults = self.schedule.arm(shard, self._epoch_index) if arm else []
        if not faults:
            return message
        self._event("fault.armed", shard=shard, fault=faults[0]["kind"])
        return {**message, "faults": faults}

    def _await(self, shard: int) -> Tuple[str, Any]:
        """Wait for one framed reply under the exchange deadline.

        Returns ``("ok", reply)`` or a failure classification:
        ``hang`` (deadline expired), ``crash`` (pipe died), or
        ``corrupt`` (frame failed its checksum).  A structured worker
        error is deterministic, not a host fault, and raises."""
        conn = self._conns[shard]
        deadline = self.policy.deadline_s
        try:
            if not _readable(conn, deadline):
                return "hang", f"no reply within {deadline:g}s"
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
        """Send to every worker before gathering any reply, so the
        shards genuinely run concurrently, then drive each exchange to
        a committed reply.  A run that has degraded -- before or during
        this command -- executes it on the inline backend."""
        if self._inline is not None:
            return self._inline._broadcast(message)
        arm = message["cmd"] == "epoch"
        if arm:
            self._epoch_index += 1
            self._time = message["horizon"]
        messages = self._shard_messages(message)
        in_flight = [self._send(shard, self._armed(shard, mine, arm))
                     for shard, mine in enumerate(messages)]
        replies: List[Dict[str, Any]] = []
        for shard, mine in enumerate(messages):
            reply = self._finish_exchange(shard, mine, arm, in_flight[shard])
            if reply is None:  # degraded mid-command; partial replies moot
                return self._inline._broadcast(message)
            replies.append(reply)
        if arm:
            # Logged as is: each command is a fresh dict, and neither
            # the engine nor this backend touches it once sent.
            self._log.append(message)
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
        universe's input history.  ``local_kernels()`` stays empty, so
        recorder fan-out does not depend on backend fate."""
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

    # -- lifecycle ------------------------------------------------------------

    def close(self) -> None:
        """Stop every worker, escalating politely: ``stop`` command ->
        ``terminate`` (SIGTERM) -> ``kill`` (SIGKILL).

        The ack wait is bounded by ``close_timeout_s`` and pipes that
        died early (EOF/broken) are tolerated, so a wedged worker
        cannot hang this method.  A worker that survives SIGKILL is
        reported by shard id instead of hanging the interpreter at
        exit.
        """
        if self._inline is not None:
            self._inline.close()
        timeout = self.close_timeout_s
        for shard, conn in enumerate(self._conns):
            try:
                if self._send(shard, {"cmd": "stop"}) \
                        and _readable(conn, timeout):
                    conn.recv_bytes()  # the ack
            except (OSError, EOFError):
                pass
            finally:
                conn.close()
        unkillable: List[int] = []
        for shard, process in enumerate(self._workers):
            if not _reap_process(process, timeout):  # pragma: no cover
                unkillable.append(shard)
        self._conns = []
        self._workers = []
        if unkillable:  # pragma: no cover - kernel-level wedge
            raise ShardError(
                f"shard worker(s) {unkillable} survived SIGKILL during "
                f"close; processes leaked")

    def __del__(self) -> None:  # pragma: no cover - GC safety net
        if getattr(self, "_workers", None):
            try:
                self.close()
            except Exception:
                pass


BACKENDS = {
    "single": SingleBackend,
    "inline": InlineBackend,
    "mp": MpBackend,
}


def make_backend(name: str, plan: ShardPlan, topology: ShardTopology,
                 **options: Any) -> Any:
    """Backend ``name`` over ``plan``; ``options`` are its keywords
    (``obs``/``flight`` for every backend, the supervision ones for
    ``mp``)."""
    try:
        factory = BACKENDS[name]
    except KeyError:
        raise ShardError(
            f"unknown shard backend {name!r}; choose from "
            f"{sorted(BACKENDS)}") from None
    return factory(plan, topology, **options)
