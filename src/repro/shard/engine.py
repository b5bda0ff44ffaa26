"""The sharded multicore engine.

:class:`ShardedEngine` drives a :class:`~repro.shard.plan.ShardPlan`
through one of three backends (see :mod:`repro.shard.backends`) with
the **epoch barrier protocol**:

1. Virtual time is cut into half-open epochs ``[kE, (k+1)E)`` on the
   ``epoch_ms`` grid.  Within an epoch every core runs only its own
   events (strictly before the barrier instant).
2. At the barrier, the union of all emitted cross-core payloads is
   sorted by the canonical ``(target core, source core, per-source
   seq)`` order, round-tripped through JSON (so the inline backends
   cannot accidentally pass object identity), and *scheduled* on each
   target core as events at the barrier instant.  Scheduling -- rather
   than applying directly -- puts payload applications after the
   core's own pre-existing events at that instant in the sequence
   order, which keeps straight runs and stop/resume runs bit-exact.
3. ``advance(until)`` horizons must lie on the epoch grid.  The stop
   point runs cores *inclusively* to ``until`` (firing barrier
   applications and any events at exactly ``until``), and payloads
   emitted by those events are held in ``pending`` -- part of the
   engine's canonical state -- to be merged into the next epoch's
   barrier, exactly where an uninterrupted run would apply them.
4. The backend is asked for a *window* of epochs at a time: one slice
   command runs to the furthest barrier instant before which no
   payload can be emitted (:meth:`ShardPlan.quiet_horizon` -- static
   plan data, one epoch wherever it cannot tell), the cores barrier
   themselves in between, and each barrier's payloads ride the next
   command.  Epochs stay the unit of history and of observation; the
   window is only how many of them one round-trip covers.
5. With a plan ``rebalance_ms``, a window also ends at every rebalance
   instant, where the cores' replies carry their loads.  The engine
   folds them in core order through :func:`rebalance` and each move
   joins that instant's barrier as an ``evict`` payload to the source
   and a ``spawn`` payload to the destination -- no extra round-trip.

Because every core is a private universe (own clock, ledger, PRNG
stream, tid allocator) and payloads are totally ordered data, the
merged history is independent of shard count, placement, and backend;
``tests/perf/test_equivalence.py`` pins that with sha256 goldens.
"""

from __future__ import annotations

import json
import math
from typing import Any, Collection, Dict, List, Optional, Tuple

from repro.errors import (
    DeterminismRaceError,
    InvariantViolation,
    ShardError,
)
from repro.shard.backends import make_backend
from repro.shard.plan import (GRID_EPS, ShardPlan, finite, grid_instants,
                              on_grid)
from repro.shard.topology import ShardTopology

__all__ = ["ShardedEngine", "rebalance"]

#: Failures that trigger a flight-recorder dump: shard/frame faults,
#: determinism-race sanitizer traps, and invariant violations.
_FLIGHT_ERRORS = (ShardError, DeterminismRaceError, InvariantViolation)


def rebalance(loads: List[Dict[str, Any]],
              sitting_out: Collection[int] = ()
              ) -> List[Tuple[str, int, int]]:
    """The moves that even out the cores' ticket totals, as
    ``(thread name, source core, destination core)``.

    Within a core the local lottery gives a thread ``t / T_core`` of
    that core's CPU; if every live core holds about ``T_total / N``
    tickets, that share is the thread's entitlement to the machine's N
    CPUs -- one big lottery, distributed.  ``loads`` are the cores'
    reports (:meth:`~repro.shard.core.ShardCore.load`) in core order;
    crashed cores and those in ``sitting_out`` neither give nor take.
    Greedy, as long as the richest-poorest gap shrinks: the richest
    core donates the runnable, unpinned thread that best halves the gap
    (never one worth the whole gap, which would overshoot and
    oscillate); when no single thread fits, the pair exchange whose
    difference best halves it.  A thread moved twice counts once, from
    where it was reported to where it ends.  A pure function of the
    reports, so every backend decides the same moves.
    """
    placed = {load["core"]: [list(row) for row in load["threads"]]
              for load in loads
              if not load["crashed"] and load["core"] not in sitting_out}
    if len(placed) < 2:
        return []
    home = {row[0]: core for core, rows in placed.items() for row in rows}

    def total(core: int) -> float:
        return math.fsum(row[1] for row in placed[core])

    def movable(core: int) -> List[List[Any]]:
        return [row for row in placed[core]
                if row[2] and not row[3] and row[1] > 0]

    def move(row: List[Any], source: int, destination: int) -> None:
        placed[source].remove(row)
        placed[destination].append(row)

    for _ in range(len(placed)):
        ranked = sorted(placed, key=total)
        poorest, richest = ranked[0], ranked[-1]
        gap = total(richest) - total(poorest)
        if gap <= 0:
            break
        fits = [row for row in movable(richest) if row[1] < gap]
        if fits:
            move(min(fits, key=lambda row: abs(gap / 2 - row[1])),
                 richest, poorest)
            continue
        pairs = [(rich, poor) for rich in movable(richest)
                 for poor in movable(poorest) if 0 < rich[1] - poor[1] < gap]
        if not pairs:
            break
        rich, poor = min(pairs, key=lambda pair: abs(
            gap / 2 - (pair[0][1] - pair[1][1])))
        move(poor, poorest, richest)
        move(rich, richest, poorest)
    final = {row[0]: core for core, rows in placed.items() for row in rows}
    return [(name, core, final[name]) for name, core in home.items()
            if final[name] != core]


class ShardedEngine:
    """Epoch-barrier executor over a plan's cores.

    Parameters
    ----------
    plan:
        A :class:`ShardPlan` (or its dict form).
    shards:
        Number of execution placement groups; cores map onto shards by
        ``core_id % shards`` unless the plan pins them.
    backend:
        ``"single"`` (the oracle), ``"inline"`` (default), or ``"mp"``.
    epoch_ms:
        Barrier grid; defaults to the plan's ``epoch_ms``.
    policy:
        A :class:`repro.shard.backends.SupervisorPolicy` overriding the
        mp backend's retry budget, exchange deadline and backoff.
    host_faults:
        A :class:`repro.shard.hostfaults.HostFaultPlan` of host-level
        faults to inject deliberately into the mp workers.
    telemetry:
        A :class:`repro.telemetry.Telemetry` hub for the mp backend's
        recovery counters and trace events.
    slo_policy:
        A :class:`repro.telemetry.slo.SloPolicy` for the watchdogs that
        judge every slice as it is observed (obs runs only; default
        thresholds when omitted).
    """

    def __init__(self, plan: Any, shards: int = 1,
                 backend: str = "inline",
                 epoch_ms: Optional[float] = None,
                 policy: Any = None,
                 host_faults: Any = None,
                 telemetry: Any = None,
                 obs: bool = False,
                 flight_dir: Optional[str] = None,
                 slo_policy: Any = None) -> None:
        self.plan = (plan if isinstance(plan, ShardPlan)
                     else ShardPlan.from_dict(plan))
        self.epoch_ms = finite("epoch_ms", epoch_ms if epoch_ms is not None
                               else self.plan.epoch_ms)
        if self.epoch_ms <= 0:
            raise ShardError(f"epoch_ms must be positive: {self.epoch_ms}")
        rebalance_ms = self.plan.rebalance_ms
        if rebalance_ms and not on_grid(rebalance_ms, self.epoch_ms):
            raise ShardError(
                f"plan rebalance_ms {rebalance_ms} is not on the "
                f"{self.epoch_ms}ms epoch grid")
        self.topology = ShardTopology(self.plan.cores, shards,
                                      self.plan.placement)
        self.backend_name = backend
        #: A flight dir implies obs: the recorder rings ride obs frames.
        self.obs_enabled = bool(obs or flight_dir)
        self.flight_dir = flight_dir
        options: Dict[str, Any] = {"obs": self.obs_enabled,
                                   "flight": bool(flight_dir)}
        if backend == "mp":
            options.update(policy=policy, host_faults=host_faults,
                           telemetry=telemetry)
        elif policy is not None or host_faults is not None:
            raise ShardError(
                f"policy/host_faults apply to backend='mp' only (got "
                f"{backend!r}): they supervise worker *processes*, "
                f"which only the mp backend has")
        self._backend = make_backend(backend, self.plan, self.topology,
                                     **options)
        if self.obs_enabled:
            from repro.telemetry.aggregate import ObsAggregator

            self._obs: Any = ObsAggregator(slo_policy)
        else:
            self._obs = None
        self._time = 0.0
        self._barriers = 0
        self._pending: List[Dict[str, Any]] = []
        self._tracer: Any = None
        self._closed = False

    # -- time -----------------------------------------------------------------

    @property
    def now(self) -> float:
        """Virtual time of the last completed advance."""
        return self._time

    def _require_grid(self, until: float) -> None:
        if not on_grid(until, self.epoch_ms):
            raise ShardError(
                f"advance horizon {until} is not on the {self.epoch_ms}ms "
                f"epoch grid; stop/resume is only bit-exact at barrier "
                f"instants")

    def _canonical(self, payloads: List[Dict[str, Any]]
                   ) -> List[Dict[str, Any]]:
        payloads.sort(key=lambda p: (p["target"], p["src"], p["seq"]))
        # The JSON round trip is applied in *every* backend (not just
        # mp) so payload values are plain data everywhere and the
        # in-process backends cannot leak object identity.
        return json.loads(json.dumps(payloads))

    # -- execution -------------------------------------------------------------

    def advance(self, until: float) -> "ShardedEngine":
        """Run the universe to virtual time ``until`` (grid-aligned)."""
        if self._closed:
            raise ShardError("sharded engine is closed")
        until = finite("advance horizon 'until'", until)
        if until < self._time - GRID_EPS:
            raise ShardError(
                f"cannot advance backwards: now={self._time}, "
                f"asked={until}")
        self._require_grid(until)
        try:
            return self._advance(until)
        except _FLIGHT_ERRORS as exc:
            self._flight_dump(exc)
            raise

    def _advance(self, until: float) -> "ShardedEngine":
        while self._time < until - GRID_EPS:
            # Held stop-point payloads are due at the very next barrier.
            limit = 1 if self._pending else self._backend.window_limit()
            if limit == 1:  # nothing to look ahead for (or, the oracle)
                horizon = next(grid_instants(self._time, until,
                                             self.epoch_ms))
            else:
                horizon = self.plan.quiet_horizon(self._time, until,
                                                  self.epoch_ms, limit)
            self._backend.run_epoch(horizon, self.epoch_ms)
            ordered = self._canonical(self._pending
                                      + self._backend.collect()
                                      + self._moves(horizon))
            self._pending = []
            if ordered:
                self._backend.barrier(horizon, ordered)
            # The cores barriered themselves at the instants between;
            # account for every epoch as if each had been a round-trip.
            for end in grid_instants(self._time, horizon, self.epoch_ms):
                payloads = len(ordered) if end >= horizon - GRID_EPS else 0
                self._barriers += 1
                if self._tracer is not None:
                    self._trace_epoch(self._time, end, payloads)
                if self._obs is not None:
                    self._obs.observe(end, self._backend.collect_obs(end),
                                      payloads=payloads, kind="epoch")
                self._time = end
        # Stop point: fire barrier applications and events at exactly
        # ``until``; hold what they emit for the next epoch's barrier.
        self._backend.run_inclusive(until, self.epoch_ms)
        self._pending = self._canonical(self._pending
                                        + self._backend.collect())
        if self._obs is not None:
            self._obs.observe(until, self._backend.collect_obs(until),
                              payloads=len(self._pending), kind="stop")
        self._time = until
        return self

    run = advance

    def _moves(self, time: float) -> List[Dict[str, Any]]:
        """The rebalance at ``time`` as barrier payloads (none unless
        the last slice ended on a rebalance instant).  A core with a
        scripted op due at ``time`` sits the fold out: its op fires
        before the moves land.  Engine-made payloads carry the source
        core as ``src`` and a negative ``seq``, which no core emits."""
        loads = self._backend.loads()
        if not loads:
            return []
        busy = {op["src"] if op["op"] == "migrate" else op["core"]
                for op in self.plan.ops if abs(op["at"] - time) <= GRID_EPS}
        specs = {spec["name"]: spec for spec in self.plan.threads}
        payloads: List[Dict[str, Any]] = []
        for seq, (name, source, destination) in enumerate(
                rebalance(loads, busy), 1):
            spec = specs[name]
            payloads.append({"kind": "evict", "target": source,
                             "name": name, "src": source, "seq": -seq})
            payloads.append({"kind": "spawn", "target": destination,
                             "body": spec["body"],
                             "args": dict(spec.get("args") or {}),
                             "name": name, "tickets": float(spec["tickets"]),
                             "reason": "rebalance", "src": source,
                             "seq": -seq})
        return payloads

    # -- observation -----------------------------------------------------------

    def merged_stream(self) -> List[Dict[str, Any]]:
        """All cores' replay entries in canonical (time, core) order."""
        merged = [entry for stream in self._backend.streams()
                  for entry in stream]
        merged.sort(key=lambda entry: (entry["time"], entry["core"]))
        return merged

    def snapshot_state(self) -> dict:
        """Typed state tree for checkpointing (see ``repro.checkpoint``).

        Deliberately excludes ``shards`` and the backend name: the
        equivalence goldens require the canonical state to be identical
        across placements and backends.
        """
        return {
            "plan": self.plan.checksum(),
            "time": self._time,
            "epoch_ms": self.epoch_ms,
            "barriers": self._barriers,
            "pending": [dict(payload) for payload in self._pending],
            "cores": self._backend.snapshots(),
        }

    def shard_kernels(self) -> List[Any]:
        """Kernels living in this process (empty under ``mp``); the
        checkpoint registry duck-types on this for recorder fan-out."""
        return self._backend.local_kernels()

    def recovery_summary(self) -> dict:
        """The backend's recovery counters and events (observability;
        not part of the canonical state).  One shape on every backend,
        and the same value for every undisturbed run."""
        return self._backend.recovery_summary()

    # -- observability plane ---------------------------------------------------

    @property
    def obs(self) -> Any:
        """The :class:`~repro.telemetry.aggregate.ObsAggregator` (None
        when the run was built without ``obs=True``)."""
        return self._obs

    def _require_obs(self) -> Any:
        if self._obs is None:
            raise ShardError(
                "observability is off for this engine; construct it "
                "with obs=True (or pass --obs on the CLI)")
        return self._obs

    def metrics_view(self) -> Any:
        """Global (cross-core merged) registry view of the latest
        barrier slice; exporter-compatible."""
        return self._require_obs().merged_metrics()

    def aggregated_metrics(self) -> Dict[str, Any]:
        """``full name -> snapshot`` of the global registry view."""
        return self.metrics_view().as_dict()

    def slo_report(self) -> Dict[str, Any]:
        """Deterministic SLO watchdog verdicts over all slices."""
        return self._require_obs().slo.report()

    def stitched_trace(self, include_recovery: bool = True) -> str:
        """One canonical Chrome trace across all cores (JSON text)."""
        from repro.telemetry.stitch import stitched_chrome

        obs = self._require_obs()
        slo = self.slo_report()
        recovery = (self.recovery_summary()["events"]
                    if include_recovery else [])
        return stitched_chrome(
            self._backend.obs_dumps(),
            barriers=obs.barrier_instants(),
            alerts=slo["breaches"],
            recovery=recovery,
            end_time=self._time)

    def obs_report(self) -> Dict[str, Any]:
        """The run report document (canonical section + recovery annex;
        see :mod:`repro.telemetry.obsreport`)."""
        import json as _json

        from repro.telemetry.obsreport import build_report

        obs = self._require_obs()
        trace = _json.loads(self.stitched_trace())
        return build_report(
            plan_checksum=self.plan.checksum(),
            time=self._time,
            metrics=self.aggregated_metrics(),
            fairness=obs.fairness(),
            slo=self.slo_report(),
            trace_sha256=trace["metadata"]["sha256"],
            slices=len(obs),
            barriers=self._barriers,
            recovery=self.recovery_summary(),
            context={"cores": self.plan.cores,
                     "epoch_ms": self.epoch_ms})

    def _flight_dump(self, exc: BaseException) -> None:
        """Best-effort crash bundle; never masks the original error."""
        if self._obs is None or self.flight_dir is None:
            return
        if getattr(exc, "flight_bundle", None) is not None:
            return  # an inner advance() already dumped for this error
        try:
            from repro.telemetry.flight import build_bundle, write_bundle

            metrics: Dict[str, Any] = {}
            try:
                metrics = self.aggregated_metrics()
            except Exception:  # pragma: no cover - merge died with run
                pass
            bundle = build_bundle(
                exc,
                plan_checksum=self.plan.checksum(),
                time=self._time,
                rings=self._obs.rings(),
                metrics=metrics,
                recovery=self.recovery_summary(),
                context={"backend": self.backend_name,
                         "shards": self.topology.shards,
                         "barriers": self._barriers})
            exc.flight_bundle = write_bundle(self.flight_dir, bundle)
        except Exception:  # pragma: no cover - recorder must not mask
            pass

    # -- telemetry --------------------------------------------------------------

    def attach_telemetry(self, tracer: Any) -> None:
        """Emit per-shard epoch spans and barrier instants into a
        :class:`repro.telemetry.spans.SpanTracer` (observation-only)."""
        self._tracer = tracer

    def _trace_epoch(self, start: float, end: float, payloads: int) -> None:
        for shard in range(self.topology.shards):
            self._tracer.complete(
                track=f"shard{shard}", name="epoch", category="shard",
                start=start, end=end,
                attrs={"cores": self.topology.cores_of(shard)})
        self._tracer.event(
            track="barrier", name="shard.barrier", category="shard",
            time=end, attrs={"payloads": payloads})

    # -- lifecycle ---------------------------------------------------------------

    def close(self) -> None:
        """Release backend resources (joins mp workers); idempotent."""
        if not self._closed:
            self._closed = True
            self._backend.close()

    def __enter__(self) -> "ShardedEngine":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<ShardedEngine backend={self.backend_name!r} "
                f"shards={self.topology.shards} cores={self.plan.cores} "
                f"now={self._time:.1f}ms>")
