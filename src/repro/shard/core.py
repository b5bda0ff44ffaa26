"""One core of a sharded universe.

A :class:`ShardCore` is a complete, self-contained machine slice: its
own :class:`~repro.sim.engine.LoopCore` (clock, agenda, tid allocator),
its own :class:`~repro.core.tickets.Ledger`, a
:class:`~repro.schedulers.lottery_policy.LotteryPolicy` drawing from a
private Park-Miller stream (``plan.seed + 101 * core_id``), a
:class:`~repro.kernel.kernel.Kernel`, a replay recorder, and the
core's view of every plan channel.  Nothing is shared between cores --
not even allocation counters -- so a core's history is a pure function
of ``(plan, core_id, barrier payloads received)``, which is what makes
the single-loop, inline, and multiprocessing backends bit-identical.

Scripted plan operations run as ordinary local events on their source
core and emit ``spawn`` payloads:

* **migrate** -- restart semantics: the thread is killed on the source
  core (tickets reclaimed into the source ledger) and respawned from
  its recorded spec on the destination core at the next barrier, with
  a fresh tid from the destination's allocator.  CPU-time progress is
  intentionally lost; what is preserved is the plan-declared identity
  (body, args, name, ticket funding).
* **crash** -- the core kills every thread; unpinned specs are
  re-emitted toward ``evacuate_to`` (possibly on another shard), the
  rest are casualties.  Replies racing toward callers that died this
  way are dropped deterministically on the caller's core.
* **restart** -- a crashed core rejoins rebalancing, empty.

An op with nothing left to do (its thread gone, its core already down
or already up) is counted in ``ops_skipped``.

At a rebalance instant the core reports its :meth:`load`; the moves
the engine decides come back as an ``evict`` payload (applied before
anything else at the instant, so the thread is still as reported) and
a ``spawn`` payload on the destination -- a migration decided at the
barrier instead of scripted in the plan.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Set

from repro.checkpoint.replay import ReplayRecorder
from repro.core.prng import ParkMillerPRNG
from repro.core.tickets import Ledger
from repro.errors import ShardError
from repro.kernel.kernel import Kernel
from repro.kernel.thread import ThreadState
from repro.schedulers.lottery_policy import LotteryPolicy
from repro.shard.builders import build_body
from repro.shard.channels import ShardChannel
from repro.shard.plan import ShardPlan
from repro.shard.router import ShardRouter, race_seam
from repro.sim.engine import LoopCore

__all__ = ["ShardCore", "load_obs_modules"]


def load_obs_modules() -> None:
    """Import every module an obs core runs: the hub, its span store
    and registry, the recorder mux its probe attaches through, and
    ``obs_frame``'s module, whose first call is inside the run.

    A core calls this when its plane is armed, and ``MpBackend`` before
    it starts workers, so that a forked worker inherits them compiled.
    """
    import repro.metrics.recorder  # noqa: F401
    import repro.telemetry.aggregate  # noqa: F401
    import repro.telemetry.probe  # noqa: F401
    import repro.telemetry.registry  # noqa: F401
    import repro.telemetry.spans  # noqa: F401


class ShardCore:
    """A core's full private universe plus its barrier plumbing."""

    def __init__(self, core_id: int, plan: ShardPlan,
                 router: ShardRouter, obs: bool = False,
                 flight: bool = False) -> None:
        self.core_id = core_id
        self.plan = plan
        self.router = router
        self.loop = LoopCore(core_id=core_id)
        self.ledger = Ledger()
        self.policy = LotteryPolicy(
            self.ledger, prng=ParkMillerPRNG(plan.core_seed(core_id)),
            use_tree=plan.use_tree)
        self.recorder = ReplayRecorder()
        self.kernel = Kernel(self.loop, self.policy, ledger=self.ledger,
                             quantum=plan.quantum, recorder=self.recorder)
        #: Per-core observability hub (None when obs is off).  The obs
        #: flag rides the constructor -- never the plan -- because plan
        #: checksums are part of the pinned canonical state, and
        #: observation must not change identity.  Instrumented before
        #: any thread exists, so probe counters are complete.
        self.obs = bool(obs)
        self.telemetry = None
        if self.obs:
            load_obs_modules()
            from repro.telemetry.probe import Telemetry

            self.telemetry = Telemetry()
            self.telemetry.instrument_kernel(self.kernel,
                                             track=f"core{core_id}")
        #: Armed flight recorder: obs frames also carry the ring of
        #: recent replay entries and spans (a crash bundle is its only
        #: reader, so an unarmed run ships none).
        self.flight = bool(flight)
        #: Baseline of the delta-state obs frames -- what the previous
        #: frames told the parent: instrument values, thread rows by
        #: tid, shard counters, and how many replay entries / completed
        #: spans the rings have covered.
        self._obs_metrics: Dict[str, Any] = {}
        self._obs_threads: Dict[int, Dict[str, Any]] = {}
        self._obs_shard: Dict[str, Any] = {}
        self._obs_entries = 0
        self._obs_spans = 0
        router.register(self)

        #: Per-source emission counter (stamped into payload ``seq`` by
        #: the router; third key of the canonical merge order).
        self.emit_seq = 0
        self._call_seq = 0
        self.payloads_applied = 0
        self.crashed = False
        self.migrations_out = 0
        self.evacuations = 0
        self.casualties = 0
        self.ops_skipped = 0

        #: name -> respawnable spec (restart-migration source of truth).
        self._specs: Dict[str, Dict[str, Any]] = {}
        #: Names of this core's pinned threads (they never leave it).
        self._pinned: Set[str] = set()
        self.channels: Dict[str, ShardChannel] = {}

        # Channels first (bodies resolve them at build time), then
        # threads in plan order, then scripted ops -- all core-local,
        # all deterministic in (plan, core_id).
        for spec in plan.channels:
            self.channels[spec["name"]] = ShardChannel(
                self, spec["name"], spec["home"])
        for spec in plan.threads_on(core_id):
            self.spawn_spec(spec)
            if spec.get("pinned"):
                self._pinned.add(spec["name"])
        handlers = {"migrate": self._op_migrate, "crash": self._op_crash,
                    "restart": self._op_restart}
        for op in plan.ops_on(core_id):
            self.loop.call_at(op["at"], handlers[op["op"]],
                              label=f"shard-{op['op']}", args=(op,))

    # -- plan plumbing -------------------------------------------------------

    def channel(self, name: str) -> ShardChannel:
        """This core's view of a plan channel."""
        try:
            return self.channels[name]
        except KeyError:
            raise ShardError(f"unknown channel {name!r} on core "
                             f"{self.core_id}") from None

    def next_call_id(self) -> int:
        self._call_seq += 1
        return self._call_seq

    def spawn_spec(self, spec: Dict[str, Any]) -> Any:
        """Spawn a thread from its JSON spec and record it for restarts."""
        body = build_body(self, spec)
        thread = self.kernel.spawn(body, spec["name"],
                                   tickets=float(spec["tickets"]))
        self._specs[spec["name"]] = {
            "body": spec["body"],
            "args": dict(spec.get("args") or {}),
            "name": spec["name"],
            "tickets": float(spec["tickets"]),
        }
        return thread

    def _find_alive(self, name: str) -> Optional[Any]:
        for thread in self.kernel.threads:
            if thread.name == name and thread.alive:
                return thread
        return None

    # -- scripted operations ---------------------------------------------------

    def _op_migrate(self, op: Dict[str, Any]) -> None:
        with race_seam("shard.migrate"):
            thread = self._find_alive(op["thread"])
            spec = self._specs.pop(op["thread"], None)
            if thread is None or spec is None:
                # Already exited/evacuated: skipping is itself part of
                # the deterministic history.
                self.ops_skipped += 1
                return
            self.kernel.kill(thread)
            self.migrations_out += 1
            self.router.emit({
                "kind": "spawn",
                "target": op["dst"],
                "body": spec["body"],
                "args": spec["args"],
                "name": spec["name"],
                "tickets": spec["tickets"],
                "reason": "migrate",
            })

    def _op_crash(self, op: Dict[str, Any]) -> None:
        if self.crashed:
            self.ops_skipped += 1
            return
        with race_seam("shard.crash"):
            self.crashed = True
            destination = op.get("evacuate_to")
            for thread in list(self.kernel.threads):
                if not thread.alive:
                    continue
                spec = self._specs.pop(thread.name, None)
                self.kernel.kill(thread)
                if destination is not None and spec is not None \
                        and thread.name not in self._pinned:
                    self.evacuations += 1
                    self.router.emit({
                        "kind": "spawn",
                        "target": destination,
                        "body": spec["body"],
                        "args": spec["args"],
                        "name": spec["name"],
                        "tickets": spec["tickets"],
                        "reason": "evacuate",
                    })
                else:
                    self.casualties += 1

    def _op_restart(self, op: Dict[str, Any]) -> None:
        if self.crashed:
            self.crashed = False
        else:
            self.ops_skipped += 1

    def load(self) -> Dict[str, Any]:
        """This core's report at a rebalance instant (a pure read): its
        ``crashed`` flag and one ``[name, nominal tickets, runnable and
        not running, pinned]`` row per live thread, in thread order."""
        runnable = ThreadState.RUNNABLE
        return {"core": self.core_id, "crashed": self.crashed,
                "threads": [[thread.name, float(thread.nominal_funding()),
                             thread.state is runnable,
                             thread.name in self._pinned]
                            for thread in self.kernel.threads
                            if thread.alive]}

    # -- epoch execution -------------------------------------------------------

    def run_epoch(self, horizon: float) -> int:
        """Run this core's events strictly before ``horizon``."""
        self.router.begin(self.core_id)
        try:
            return self.loop.run_before(horizon)
        finally:
            self.router.end()

    def run_inclusive(self, until: float) -> None:
        """Stop-point run: include events at exactly ``until`` and
        advance the clock there (see the barrier protocol in
        ``docs/SHARDING.md``)."""
        self.router.begin(self.core_id)
        try:
            self.loop.run(until=until)
        finally:
            self.router.end()

    def step_one(self) -> bool:
        """Fire one event under this core's execution context (the
        single-loop oracle's interleaving primitive)."""
        self.router.begin(self.core_id)
        try:
            return self.loop.step()
        finally:
            self.router.end()

    def apply_barrier(self, time: float, payloads: List[Dict[str, Any]]) -> None:
        """Advance to the barrier instant and schedule payload
        application *as events* at that instant.

        Scheduling (rather than calling) keeps event sequence numbers
        identical between straight runs and stop/resume runs: payload
        applications always sort after the core's own pre-existing
        events at the barrier time.  A rebalance ``evict`` is the one
        exception, applied here: before any event at the instant, the
        thread is still what this core reported.
        """
        self.loop.advance_clock(time)
        for payload in payloads:
            if payload["kind"] == "evict":
                self._apply_payload(payload)
            else:
                self.loop.call_at(time, self._apply_payload,
                                  label="shard-barrier", args=(payload,))

    def _apply_payload(self, payload: Dict[str, Any]) -> None:
        with race_seam("shard.barrier"):
            kind = payload["kind"]
            if kind == "call":
                self.channel(payload["channel"]).apply_call(payload)
            elif kind == "send":
                self.channel(payload["channel"]).apply_send(payload)
            elif kind == "reply":
                self.channel(payload["channel"]).apply_reply(payload)
            elif kind == "spawn":
                with race_seam("shard.migrate"):
                    self.spawn_spec(payload)
            elif kind == "evict":
                self._evict(payload["name"])
            else:
                raise ShardError(f"unknown barrier payload kind {kind!r}")
            self.payloads_applied += 1
            if self.telemetry is not None:
                self.telemetry.tracer.event(
                    f"core{self.core_id}", f"shard.rx.{kind}", "shard",
                    self.loop.now,
                    {"src": payload["src"], "seq": payload["seq"],
                     "target": self.core_id})

    def _evict(self, name: str) -> None:
        """The source half of a rebalance move (its spawn rides the
        same barrier to the destination)."""
        with race_seam("shard.migrate"):
            thread = self._find_alive(name)
            if thread is None:
                raise ShardError(f"rebalance evicts {name!r} from core "
                                 f"{self.core_id}, which has no such "
                                 f"live thread")
            del self._specs[name]
            self.kernel.kill(thread)
            self.migrations_out += 1

    # -- observation -----------------------------------------------------------

    def obs_emit(self, payload: Dict[str, Any]) -> None:
        """Trace a just-stamped outgoing payload (the tx half of the
        stitched flow edge; called by the router after ``src``/``seq``
        are assigned).  Observation-only by construction."""
        if self.telemetry is not None:
            self.telemetry.tracer.event(
                f"core{self.core_id}", f"shard.tx.{payload['kind']}",
                "shard", self.loop.now,
                {"src": payload["src"], "seq": payload["seq"],
                 "target": payload["target"]})

    def obs_frame(self, time: float) -> Dict[str, Any]:
        """Delta-state observability frame at a barrier instant.

        Plain JSON data only (it rides the worker pipes next to barrier
        payloads): the leaves that changed since this core's previous
        frame -- instrument snapshots, thread rows, shard counters --
        each with its **new absolute value**, never a difference, so
        folding frames in order (``ObsAggregator``) rebuilds the
        cumulative frame exactly (no float is re-derived), folding one
        twice is harmless, and the first frame is simply a complete
        one.  ``metrics`` / ``threads`` / ``shard`` are absent when
        nothing under them moved.  With the flight recorder armed,
        ``ring`` holds the replay entries and spans completed since the
        previous frame, at most ``RING_*`` of each.

        Each call moves the baseline, and only the logged slice command
        calls it (once per epoch it runs, once more for a stop): a
        respawned worker or a degraded run replays that log, so its
        baseline -- hence the deltas a retried command returns -- is
        the one the lost worker had at the last committed command.
        """
        from repro.telemetry.aggregate import (
            FRAME_FORMAT,
            FRAME_VERSION,
            RING_ENTRIES,
            RING_SPANS,
        )

        frame: Dict[str, Any] = {
            "format": FRAME_FORMAT,
            "version": FRAME_VERSION,
            "core": self.core_id,
            "time": float(time),
        }
        if self.telemetry is not None:
            metrics = self.telemetry.registry.changed_since(self._obs_metrics)
            if metrics:
                frame["metrics"] = metrics
        threads = []
        for thread in self.kernel.threads:
            row = {
                "name": thread.name,
                "tid": thread.tid,
                "alive": bool(thread.alive),
                "state": thread.state.value,
                "runnable": thread.state.value == "runnable",
                "tickets": float(thread.nominal_funding()),
                "cpu_ms": float(thread.cpu_time),
                "dispatches": int(thread.dispatches),
            }
            if self._obs_threads.get(thread.tid) != row:
                self._obs_threads[thread.tid] = row
                threads.append(row)
        if threads:
            frame["threads"] = threads
        counters = {
            "payloads_applied": self.payloads_applied,
            "migrations_out": self.migrations_out,
            "evacuations": self.evacuations,
            "casualties": self.casualties,
            "ops_skipped": self.ops_skipped,
            "crashed": self.crashed,
        }
        shard = {key: value for key, value in counters.items()
                 if self._obs_shard.get(key) != value}
        if shard:
            self._obs_shard.update(shard)
            frame["shard"] = shard
        if self.flight:
            entries = self.recorder.entries
            fresh = min(len(entries) - self._obs_entries, RING_ENTRIES)
            self._obs_entries = len(entries)
            ring = {"entries": [dict(entry) for entry in
                                entries[len(entries) - fresh:]],
                    "spans": []}
            if self.telemetry is not None:
                tracer = self.telemetry.tracer
                fresh = min(tracer.completed - self._obs_spans, RING_SPANS)
                self._obs_spans = tracer.completed
                ring["spans"] = [span.to_dict()
                                 for span in tracer.tail(fresh)]
            frame["ring"] = ring
        return frame

    def obs_dump(self) -> Dict[str, Any]:
        """Full span dump for trace stitching (a pure read: the tracer
        is never finalized here, open spans ship with ``end=None``)."""
        if self.telemetry is None:
            return {"core": self.core_id, "spans": [], "open_spans": []}
        tracer = self.telemetry.tracer
        return {
            "core": self.core_id,
            "spans": [span.to_dict() for span in tracer],
            "open_spans": [span.to_dict() for span in tracer.open_spans()],
        }

    def stream_entries(self) -> List[Dict[str, Any]]:
        """This core's replay entries, the recorder's own dicts (a pure
        read: the backend stamps ``core`` onto its private copies)."""
        return self.recorder.entries

    def snapshot_state(self) -> dict:
        """Typed state tree for checkpointing (see ``repro.checkpoint``)."""
        return {
            "core": self.core_id,
            "engine": self.loop.snapshot_state(),
            "kernel": self.kernel.snapshot_state(),
            "ledger": self.ledger.snapshot_state(),
            "recorder": self.recorder.snapshot_state(),
            "channels": {name: channel.snapshot_state()
                         for name, channel in sorted(self.channels.items())},
            "shard": {
                "emit_seq": self.emit_seq,
                "call_seq": self._call_seq,
                "payloads_applied": self.payloads_applied,
                "crashed": self.crashed,
                "migrations_out": self.migrations_out,
                "evacuations": self.evacuations,
                "casualties": self.casualties,
                "ops_skipped": self.ops_skipped,
                "specs": sorted(self._specs),
            },
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<ShardCore {self.core_id} now={self.loop.now:.1f}ms "
                f"threads={len(self.kernel.threads)}>")
