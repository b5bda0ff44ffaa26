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
  commands and barrier payloads with the parent (never objects).
  Measured by ``bench/``'s ``shard_spin_mp`` workload as
  ``shard.mp_over_inline`` (mp wall / inline wall, two workers pinned
  to two CPUs): 0.70-0.97 while every epoch cost two pipe
  round-trips, 0.48-0.62 now that a quiet window costs one; the
  break-even grid is in ``docs/SHARDING.md`` section 3.  It is also the process layout that
  supervision (:mod:`repro.shard.supervisor`) makes fault-tolerant.

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
import os
import traceback
from collections import deque
from typing import Any, Callable, Deque, Dict, List, Optional, Tuple

from repro.errors import ShardError
from repro.shard.core import ShardCore
from repro.shard.plan import GRID_EPS, ShardPlan, grid_instants, on_grid
from repro.shard.router import ShardRouter
from repro.shard.topology import ShardTopology

__all__ = ["BACKENDS", "InlineBackend", "MpBackend", "SingleBackend",
           "make_backend"]

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
    degraded supervisor all come through here, so the command
    semantics -- and therefore the produced histories -- cannot drift
    between the in-process, the fail-stop and the fault-tolerant
    protocol.  ``epoch`` is the slice command (module docstring) and
    the only one that advances history, hence the only one a supervisor
    logs.  With ``obs`` its reply piggybacks one list of delta-state
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
    supervisor logs and ShardError messages name the real cause."""
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


def _recv_pickled(conn: Any) -> Dict[str, Any]:
    return conn.recv()


def _send_pickled(conn: Any, message: Dict[str, Any],
                  reply: Dict[str, Any]) -> None:
    conn.send(reply)


#: A worker's wire codec: ``recv(conn) -> message`` and
#: ``send(conn, message, reply)`` (the reply travels with the command
#: it answers).  Module-level functions, so the pair pickles under the
#: ``spawn`` start method.
WorkerCodec = Tuple[Callable[[Any], Dict[str, Any]],
                    Callable[[Any, Dict[str, Any], Dict[str, Any]], None]]


def _worker_main(conn: Any, plan_dict: Dict[str, Any],
                 core_ids: List[int], sanitize: bool, obs: bool,
                 flight: bool, codec: WorkerCodec) -> None:
    """Worker entry point: rebuild this shard's cores from the plan
    and serve slice commands until told to stop.

    Module-level (not a closure) so the function is importable under
    the ``spawn`` start method as well as ``fork``.  Workers carry
    their own router and -- when the parent runs under
    ``REPRO_SANITIZE=1`` -- their own race sanitizer, so barrier
    handoffs are sanitized inside every process.
    """
    recv, send = codec
    command: Optional[str] = None
    try:
        cores, router = _build_worker_cores(plan_dict, core_ids, sanitize,
                                            obs=obs, flight=flight)
        while True:
            message = recv(conn)
            command = message.get("cmd")
            reply = _execute_command(cores, router, message, obs=obs)
            send(conn, message, reply)
            if reply.get("stop"):
                break
    except EOFError:  # parent went away (or respawned us): done
        pass
    except BaseException as exc:
        # Includes a damaged *incoming* message: the command cannot be
        # trusted, so report and stop serving -- a supervisor treats
        # the dying worker as a host fault.
        try:
            send(conn, {}, {"error": _describe_error(exc, command)})
        except (OSError, ValueError):
            pass
    finally:
        conn.close()


class MpBackend(_Backend):
    """One persistent worker process per shard, payloads over pipes."""

    name = "mp"

    _worker_codec: WorkerCodec = (_recv_pickled, _send_pickled)

    def __init__(self, plan: ShardPlan, topology: ShardTopology,
                 obs: bool = False, flight: bool = False) -> None:
        import multiprocessing  # a cold path: inline runs never load it

        super().__init__(plan, topology, obs=obs, flight=flight)
        self._context = multiprocessing.get_context()
        self._sanitize = bool(os.environ.get("REPRO_SANITIZE"))
        self._workers: List[Any] = []
        self._conns: List[Any] = []
        plan_dict = plan.to_dict()
        for shard in range(topology.shards):
            process, conn = self._spawn_worker(shard, plan_dict)
            self._workers.append(process)
            self._conns.append(conn)

    def _spawn_worker(self, shard: int,
                      plan_dict: Dict[str, Any]) -> Tuple[Any, Any]:
        parent_conn, child_conn = self._context.Pipe()
        process = self._context.Process(
            target=_worker_main,
            args=(child_conn, plan_dict, self.topology.cores_of(shard),
                  self._sanitize, self.obs, self.flight,
                  self._worker_codec),
            daemon=True,
            name=f"repro-shard-{shard}",
        )
        process.start()
        child_conn.close()
        return process, parent_conn

    # -- command plumbing -----------------------------------------------------

    def _shard_messages(self, message: Dict[str, Any]
                        ) -> List[Dict[str, Any]]:
        """Each shard's copy of ``message``; a carried barrier's
        payloads go only to the shard hosting their target core."""
        shards = range(self.topology.shards)
        if message.get("barrier") is None:
            return [dict(message) for _ in shards]
        grouped = _group_payloads(message["barrier"], self.topology.shard_of)
        return [{**message, "barrier": grouped.get(shard, [])}
                for shard in shards]

    def _post(self, shard: int, message: Dict[str, Any]) -> None:
        self._conns[shard].send(message)

    def _broadcast(self, message: Dict[str, Any]) -> List[Dict[str, Any]]:
        """Send to every worker first, then gather replies, so shards
        genuinely run concurrently."""
        for shard, mine in enumerate(self._shard_messages(message)):
            self._post(shard, mine)
        replies = []
        for shard, conn in enumerate(self._conns):
            try:
                reply = conn.recv()
            except EOFError:
                raise ShardError(
                    f"shard worker {shard} died mid-command "
                    f"{message.get('cmd')!r}") from None
            if "error" in reply:
                raise ShardError(_format_worker_error(shard, reply["error"]))
            replies.append(reply)
        return replies

    # -- lifecycle ------------------------------------------------------------

    #: Host seconds granted to each shutdown stage (stop ack, join,
    #: terminate, kill); a class attribute so tests can shrink it.
    close_timeout_s = 5.0

    def close(self) -> None:
        """Stop every worker, escalating politely: ``stop`` command ->
        ``terminate`` (SIGTERM) -> ``kill`` (SIGKILL).

        Wedged workers used to hang this method at ``conn.recv()``;
        the ack wait is now bounded by ``close_timeout_s`` and pipes
        that died early (EOF/broken) are tolerated.  A worker that
        survives SIGKILL is reported by shard id instead of hanging
        the interpreter at exit.
        """
        timeout = self.close_timeout_s
        for shard, conn in enumerate(self._conns):
            try:
                self._post(shard, {"cmd": "stop"})
                if conn.poll(timeout):
                    conn.recv_bytes()  # the ack, whatever its codec
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
                 obs: bool = False, flight: bool = False) -> Any:
    try:
        factory = BACKENDS[name]
    except KeyError:
        raise ShardError(
            f"unknown shard backend {name!r}; choose from "
            f"{sorted(BACKENDS)}") from None
    return factory(plan, topology, obs=obs, flight=flight)
