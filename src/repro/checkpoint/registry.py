"""Recipe building and the snapshot-coverage table.

**Recipes** make restore possible without pickling live objects.
Thread bodies are Python generators -- their frames cannot be
serialized -- but the whole simulation is a pure function of its seeds
(see docs/CHECKPOINT.md, "The determinism contract"), so a checkpoint
stores *how the system was built* (a recipe name plus JSON-serializable
arguments) alongside the captured state tree.  Restore re-executes the
recipe to the checkpoint time and *proves* the reconstruction by
diffing its live state tree against the saved one; any mismatch is a
divergence, named by path.

A recipe is a callable ``build(**args) -> SimHandle`` entered under a
stable name in :data:`repro.checkpoint.recipes.RECIPES`.  Its arguments
must round-trip through JSON, and it must be deterministic: same args,
same universe.

**Snapshot coverage** is the other table: for every class with a
``snapshot_state()`` seam, the sets of instance attributes the seam
captures and those it deliberately leaves out (transient/derived
state).  The RPR007 lint rule audits each class's actual ``self.x``
assignments against this table, so adding mutable state without
extending the seam fails the lint instead of silently producing
checkpoints that miss it.
"""

from __future__ import annotations

import math
from typing import (Any, Callable, Dict, Iterable, List, Optional, Union,
                    get_args, get_origin, get_type_hints)

from repro.errors import CheckpointError

__all__ = [
    "SimHandle",
    "build_recipe",
    "SNAPSHOT_COVERAGE",
]


class SimHandle:
    """A built simulation: engine, named components, how to advance it.

    Parameters
    ----------
    recipe:
        Recipe name that built this system.
    args:
        The JSON-serializable arguments the recipe was built with
        (stored verbatim in checkpoints).
    engine:
        The discrete-event engine driving the system.
    components:
        name -> object exposing ``snapshot_state()``; capture order is
        the insertion order, so keep it stable within a recipe.
    advance:
        Optional override for "run to virtual time T" when plain
        ``engine.run(until=T)`` is not the right verb.
    """

    def __init__(self, recipe: str, args: Dict[str, Any], engine: Any,
                 components: Dict[str, Any],
                 advance: Optional[Callable[[float], None]] = None) -> None:
        self.recipe = recipe
        self.args = dict(args)
        self.engine = engine
        self.components = dict(components)
        self._advance = advance

    @property
    def now(self) -> float:
        """Current virtual time (ms)."""
        return self.engine.now

    def advance(self, until: float) -> None:
        """Run the simulation forward to virtual time ``until``."""
        if not isinstance(until, (int, float)) or not math.isfinite(until):
            # NaN passes the backwards check; neither it nor inf is reached.
            raise CheckpointError(
                f"advance horizon 'until' must be a finite number: "
                f"{until!r}")
        if until < self.now:
            raise CheckpointError(
                f"cannot advance backwards: now={self.now:g}ms, "
                f"asked for {until:g}ms"
            )
        if self._advance is not None:
            self._advance(until)
        else:
            self.engine.run(until=until)

    def kernels(self) -> List[Any]:
        """Every kernel in the system (for the sanitizer gate)."""
        from repro.kernel.kernel import Kernel

        found: List[Any] = []
        for component in self.components.values():
            if isinstance(component, Kernel):
                found.append(component)
            elif hasattr(component, "shard_kernels"):
                # Sharded engines expose their in-process kernels (the
                # mp backend's live in workers and report an empty
                # list; those sanitize themselves worker-side).
                found.extend(component.shard_kernels())
        return found

    def stream(self) -> List[Dict[str, Any]]:
        """The run's dispatch stream: a sharded engine's merged stream,
        else the ``recorder`` component's entries."""
        for component in self.components.values():
            if hasattr(component, "merged_stream"):
                return component.merged_stream()
        return self.components["recorder"].entries

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<SimHandle recipe={self.recipe!r} t={self.now:g}ms "
                f"components={sorted(self.components)}>")


# -- recipes ------------------------------------------------------------------


def build_recipe(name: str, args: Dict[str, Any]) -> SimHandle:
    """Build a fresh simulation from the recipe table
    (:data:`repro.checkpoint.recipes.RECIPES`); ``name`` and ``args``
    come from a file, so both are checked against it."""
    import inspect

    from repro.checkpoint.recipes import RECIPES

    try:
        builder = RECIPES[name]
    except KeyError:
        raise CheckpointError(
            f"unknown recipe {name!r}; known: {sorted(RECIPES)}"
        ) from None
    taken = inspect.signature(builder).parameters
    unknown = sorted(set(args) - set(taken))
    if unknown:
        raise CheckpointError(
            f"args {unknown} are not parameters of recipe {name!r}; it "
            f"takes {sorted(taken)}")
    hints = get_type_hints(builder)
    for field, value in args.items():
        if not _conforms(value, hints[field]):
            raise CheckpointError(
                f"recipe {name!r} arg {field!r} must be "
                f"{inspect.formatannotation(hints[field])}: {value!r}")
    return builder(**args)


def _conforms(value: Any, hint: Any) -> bool:
    """Whether a value read from a file is of a recipe parameter's
    annotated type, exactly: ``True`` is no ``int`` and ``1.5`` none
    either; a ``float`` is any ``int`` or finite ``float``."""
    origin = get_origin(hint)
    if origin is Union:
        return any(_conforms(value, arm) for arm in get_args(hint))
    if origin is list:
        (item,) = get_args(hint)
        return type(value) is list \
            and all(_conforms(cell, item) for cell in value)
    if hint is float:
        return type(value) is int \
            or type(value) is float and math.isfinite(value)
    return hint is Any or type(value) is hint


# -- snapshot coverage --------------------------------------------------------

#: dotted class path -> {"covered": attrs the seam captures,
#:                       "transient": attrs deliberately left out}.
#: Audited by lint rule RPR007 (b) against the classes' actual ``self.x``
#: assignments: an attribute in neither set means mutable state was
#: added without a decision about checkpointing it.
SNAPSHOT_COVERAGE: Dict[str, Dict[str, Iterable[str]]] = {
    "repro.sim.engine.Engine": {
        "covered": {"events_processed", "_next_tid"},
        # clock/_queue are captured through their own seams; _bound/_stop
        # describe only the run in progress.
        "transient": {"clock", "_queue", "_running", "_bound", "_stop"},
    },
    "repro.sim.engine.LoopCore": {
        # The mechanics Engine inherits; same coverage story.  core_id
        # is construction-time identity (the snapshot's position in the
        # sharded engine's core list encodes it), not evolving state.
        "covered": {"events_processed", "_next_tid"},
        "transient": {"clock", "_queue", "_running", "_bound", "_stop",
                      "core_id"},
    },
    "repro.sim.events.EventQueue": {
        "covered": {"_seq", "_heap"},
        "transient": set(),
    },
    "repro.core.prng.ParkMillerPRNG": {
        "covered": {"_state", "_initial_seed"},
        "transient": set(),
    },
    "repro.kernel.kernel.Kernel": {
        "covered": {"quantum", "context_switch_cost", "running",
                    "_quantum_left", "_dispatch_pending",
                    "_instant_syscalls", "_inflight", "dispatch_count",
                    "idle_time", "kills", "_idle_since", "tasks", "threads",
                    "ports", "policy", "ledger", "engine"},
        # Observers and hooks are re-wired by the recipe, not restored
        # from data (the _on_* events are resolved from the recorder);
        # clock is the engine's (captured there).
        "transient": {"recorder", "_recorder", "_on_dispatch", "_on_cpu",
                      "_on_block", "_on_wake", "_on_exit", "invariant_hooks",
                      "telemetry", "clock"},
    },
    "repro.kernel.thread.Thread": {
        "covered": {"tid", "task", "state", "priority", "funding_currency",
                    "_started", "current_syscall", "cpu_time", "dispatches",
                    "voluntary_yields", "created_at", "exited_at",
                    "runnable_since"},
        # The generator frame is the one thing a checkpoint cannot hold;
        # restore re-executes the recipe instead of restoring frames.
        # _context wraps the kernel; _pending_send is consumed within
        # the same dispatch it is set in.
        "transient": {"kernel", "_generator", "_context", "_pending_send"},
    },
    "repro.schedulers.stride.StridePolicy": {
        "covered": {"_seq", "_global_tickets", "_global_pass",
                    "_pending_pass", "_entries", "_remain", "_strides",
                    "_tickets_of"},
        # _heap/_removed are the lazy-deletion pair over _entries; the
        # snapshot captures the canonical (pass, seq) table instead.
        "transient": {"_heap", "_removed"},
    },
    "repro.schedulers.lottery_policy.LotteryPolicy": {
        "covered": {"prng", "_use_tree", "_zero_funding_fallback",
                    "lotteries_held", "fallback_selections", "compensation",
                    "_tree", "_list"},
        # ledger is captured at the kernel level; _members and _dirty
        # are derived indexes over the active structure (membership and
        # pending revaluations), _mark_dirty is _dirty's bound add;
        # draw_hook is a telemetry observer, forbidden from mutating
        # scheduling state.
        "transient": {"ledger", "_members", "_dirty", "_mark_dirty",
                      "draw_hook"},
    },
    "repro.iosched.disk.Disk": {
        "covered": {"scheduler", "prng", "tickets", "_head_sector", "_busy",
                    "busy_time", "_queues", "_rr_order", "completed",
                    "bytes_served", "_fifo"},
        "transient": {"engine", "seek_ms_per_1000_sectors",
                      "rotational_ms", "transfer_kb_per_ms"},
    },
    "repro.mem.frames.FramePool": {
        "covered": {"frames", "_free"},
        "transient": {"_where", "_owned"},  # derived indexes over frames
    },
    "repro.mem.manager.MemoryManager": {
        "covered": {"pool", "total_references", "faults", "hits",
                    "evictions"},
        "transient": {"policy"},
    },
    "repro.telemetry.spans.SpanTracer": {
        "covered": {"max_spans", "strict", "_next_sid", "dropped_spans"},
        # The span store (sealed chunks, the chunk being filled, the
        # evicted-head offset, the retained count) and per-track stacks
        # are exported (JSONL / Chrome), not checkpointed; the seam
        # captures their summary counts so restore-then-trace divergence
        # is still diffable.  The site table is rebuilt by use: a site
        # is its shape plus handles into that store.
        "transient": {"_chunks", "_order", "_blocks", "_sites", "_head",
                      "_size", "_stacks", "_parked"},
    },
    "repro.telemetry.registry.MetricRegistry": {
        "covered": {"_instruments"},
        "transient": set(),
    },
    "repro.telemetry.probe.Telemetry": {
        "covered": {"tracer", "registry"},
        # Probe wiring is re-attached after restore, never restored
        # from data (same rule as Kernel.recorder); _bound holds
        # handles into the (covered) registry, re-bound on first use.
        "transient": {"_probes", "_instrumented_policies",
                      "_observing_checkpoints", "_bound"},
    },
    "repro.workloads.arrivals.ArrivalProcess": {
        "covered": {"rate_per_s", "prng", "clock_ms", "emitted"},
        "transient": set(),
    },
    "repro.workloads.arrivals.MMPPArrivals": {
        # Rates derive from the constructor parameters; the evolving
        # phase machine is what a restore must re-position.
        "covered": {"burst_factor", "mean_dwell_ms", "_phase",
                    "_phase_until_ms"},
        "transient": {"_calm_rate", "_burst_rate"},
    },
    "repro.workloads.arrivals.DiurnalArrivals": {
        "covered": {"period_ms", "amplitude"},
        "transient": {"_peak_rate_per_ms"},
    },
    "repro.serving.admission.TokenBucket": {
        "covered": {"rate_per_s", "burst", "tokens", "clock_ms",
                    "admitted", "shed"},
        "transient": set(),
    },
    "repro.serving.admission.AdmissionController": {
        # The state tree also carries the HEADROOM and BURST_S constants.
        "covered": {"capacity_rps", "buckets"},
        "transient": set(),
    },
    "repro.metrics.histogram.Histogram": {
        # Captured by the serving seams (``serving.stats.digest_state``);
        # name only labels error messages.
        "covered": {"bin_width", "count", "total", "max", "counts"},
        "transient": {"name"},
    },
    "repro.serving.stats.ServingStats": {
        # The state tree also carries the BIN_MS constant.
        "covered": {"offered", "shed", "completed", "e2e", "wake"},
        "transient": set(),
    },
    "repro.serving.slo_controller.ClassLatencyProbe": {
        # The state tree also carries the FRONTEND_PREFIX constant.
        "covered": {"window"},
        # stats is shared measurement plumbing (captured as its own
        # object); the id-keyed attribution cache is rebuilt on replay.
        "transient": {"stats", "_by_tid"},
    },
    "repro.serving.slo_controller.SloClassState": {
        "covered": {"name", "target_p99_ms", "floor", "ceiling"},
        # Lever tickets live in the ledger's state tree; the window
        # baseline is re-established at the next control epoch.
        "transient": {"levers", "baseline"},
    },
    "repro.serving.slo_controller.SloController": {
        # The state tree also carries the INFLATE, DEFLATE and COMFORT
        # constants.
        "covered": {"epoch_ms", "epochs", "min_samples", "classes"},
        "transient": {"probe", "history"},
    },
}
