"""Declarative multicore universe plans.

A :class:`ShardPlan` is the *entire* input of a sharded run: how many
cores exist, which threads start where (by registered body name, so
the plan round-trips through JSON and can be shipped to worker
processes), which cross-core channels exist and where they are homed,
which scripted operations (migrations, core crashes and restarts) fire
when, and how often -- if at all -- the engine rebalances threads
across cores (``rebalance_ms``).

Everything downstream -- the single-loop oracle, the inline backend,
and the multiprocessing backend -- rebuilds the identical universe
from this one JSON-serializable value.  That is the root of the
determinism argument (see ``docs/SHARDING.md``): a core's history is a
pure function of ``(plan, core_id)`` plus the barrier payloads it
receives, never of shard placement or execution backend.
"""

from __future__ import annotations

import math
from typing import Any, Callable, Dict, Iterator, List, Optional, Set

from repro.checkpoint.statetree import tree_checksum
from repro.errors import ShardError
from repro.shard.builders import BODY_REGISTRY

__all__ = ["PLANS", "ShardPlan", "finite", "grid_instants", "integer",
           "mix_plan", "on_grid", "spin_plan"]

#: Slack of every "strictly before the barrier" comparison -- the value
#: ``LoopCore.run_before`` uses, so the lookahead and the event loop
#: agree on which epoch fires an event.
GRID_EPS = 1e-9


def on_grid(time: float, epoch_ms: float) -> bool:
    """Whether ``time`` is a barrier instant of the ``epoch_ms`` grid."""
    quotient = time / epoch_ms
    return abs(quotient - round(quotient)) <= 1e-6


def grid_instants(start: float, horizon: float,
                  epoch_ms: float) -> Iterator[float]:
    """The barrier instants in ``(start, horizon]``, by repeated
    addition from ``start`` -- never ``start + k * epoch_ms``.  They
    reach core clocks, obs frames and the state tree, so the engine,
    the lookahead and every worker must walk the very same floats."""
    while start < horizon - GRID_EPS:
        start = min(start + epoch_ms, horizon)
        yield start

#: Offset between per-core Park-Miller streams.  101 is coprime with
#: the Lehmer modulus 2**31 - 1, so distinct cores get distinct seeds
#: for any root seed the validator accepts.
CORE_SEED_STRIDE = 101

_OP_KINDS = frozenset({"migrate", "crash", "restart"})


def finite(name: str, value: Any) -> float:
    """``value`` as a float, or a ShardError naming the field: plans
    and horizons are shipped into workers and looped on, so they are
    checked at the door."""
    if isinstance(value, bool) or not isinstance(value, (int, float)) \
            or not math.isfinite(value):
        raise ShardError(f"{name} must be a finite number: {value!r}")
    return float(value)


def integer(name: str, value: Any) -> int:
    """``value`` if it is an int (not a bool), else a ShardError."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ShardError(f"{name} must be an integer: {value!r}")
    return value


def _specs(name: str, entries: Any) -> List[Dict[str, Any]]:
    """Copies of a list-of-dicts plan field (``None`` is empty)."""
    if entries is None:
        return []
    if not isinstance(entries, (list, tuple)) or not all(
            isinstance(entry, dict) for entry in entries):
        raise ShardError(f"plan {name} must be a list of dicts: {entries!r}")
    return [dict(entry) for entry in entries]


class ShardPlan:
    """Validated, JSON-round-trippable description of a multicore run.

    Parameters mirror the stored fields; ``threads``, ``channels`` and
    ``ops`` are lists of plain dicts (see the module docstring of
    :mod:`repro.shard.builders` for thread specs; a spec may carry
    ``"pinned": True``, which keeps the thread on its core -- never
    moved, a casualty when the core crashes).  ``placement`` optionally
    pins cores to shards (``{core_id: shard}``); unpinned cores use the
    deterministic ``core_id % shards`` hash.  ``rebalance_ms``, a
    multiple of ``epoch_ms``, turns on the barrier-time rebalancer (see
    :func:`repro.shard.engine.rebalance`); None leaves placement static.
    """

    def __init__(self, seed: int = 1, cores: int = 1,
                 quantum: float = 100.0, epoch_ms: float = 500.0,
                 use_tree: bool = False,
                 threads: Optional[List[Dict[str, Any]]] = None,
                 channels: Optional[List[Dict[str, Any]]] = None,
                 ops: Optional[List[Dict[str, Any]]] = None,
                 placement: Optional[Dict[int, int]] = None,
                 rebalance_ms: Optional[float] = None) -> None:
        self.seed = integer("plan seed", seed)
        self.cores = integer("plan cores", cores)
        self.quantum = finite("plan quantum", quantum)
        self.epoch_ms = finite("plan epoch_ms", epoch_ms)
        self.rebalance_ms = (None if rebalance_ms is None
                             else finite("plan rebalance_ms", rebalance_ms))
        self.use_tree = bool(use_tree)
        self.threads = _specs("threads", threads)
        self.channels = _specs("channels", channels)
        self.ops = _specs("ops", ops)
        try:
            # JSON keys are strings: ``from_dict`` hands "0" for core 0.
            self.placement = {int(k): int(v)
                              for k, v in dict(placement or {}).items()}
        except (TypeError, ValueError):
            raise ShardError("plan placement must map core ids to shard "
                             f"ids: {placement!r}") from None
        self._validate()

    # -- construction helpers ------------------------------------------------

    def add_thread(self, core: int, body: str, name: str, tickets: float,
                   pinned: bool = False, **args: Any) -> "ShardPlan":
        """Append a thread spec (chainable)."""
        spec = {"core": int(core), "body": body, "name": name,
                "tickets": float(tickets), "args": dict(args)}
        if pinned:
            spec["pinned"] = pinned
        self._check_thread(spec)
        self.threads.append(spec)
        return self

    def add_channel(self, name: str, home: int) -> "ShardPlan":
        """Append a cross-core channel homed on ``home`` (chainable)."""
        spec = {"name": name, "home": int(home)}
        self._check_channel(spec)
        self.channels.append(spec)
        return self

    def migrate(self, at: float, thread: str, src: int,
                dst: int) -> "ShardPlan":
        """Script a restart-migration of ``thread`` from ``src`` to
        ``dst`` at virtual time ``at`` (chainable)."""
        op = {"op": "migrate", "at": float(at), "thread": thread,
              "src": int(src), "dst": int(dst)}
        self._check_op(op)
        self.ops.append(op)
        return self

    def crash(self, at: float, core: int,
              evacuate_to: Optional[int] = None) -> "ShardPlan":
        """Script a core crash at ``at``; unpinned threads are
        respawned on ``evacuate_to`` when given (chainable)."""
        op = {"op": "crash", "at": float(at), "core": int(core),
              "evacuate_to": (None if evacuate_to is None
                              else int(evacuate_to))}
        self._check_op(op)
        self.ops.append(op)
        return self

    def restart(self, at: float, core: int) -> "ShardPlan":
        """Script the restart of a crashed core at ``at``: it rejoins
        rebalancing empty (chainable)."""
        op = {"op": "restart", "at": float(at), "core": int(core)}
        self._check_op(op)
        self.ops.append(op)
        return self

    # -- validation ----------------------------------------------------------

    def _core_ok(self, core: Any) -> bool:
        return isinstance(core, int) and 0 <= core < self.cores

    def _validate(self) -> None:
        """The full pass (constructor, hence ``from_dict``); the
        ``add_*`` helpers check only the entry they append, against the
        name sets this pass seeds."""
        if self.seed < 1 or self.seed > 2_000_000_000:
            raise ShardError(f"plan seed out of range: {self.seed}")
        if self.cores < 1:
            raise ShardError(f"plan needs at least one core: {self.cores}")
        if self.quantum <= 0 or self.epoch_ms <= 0:
            raise ShardError("quantum and epoch_ms must be positive")
        if self.rebalance_ms is not None and (
                self.rebalance_ms <= 0
                or not on_grid(self.rebalance_ms, self.epoch_ms)):
            raise ShardError(
                f"plan rebalance_ms must be a positive multiple of "
                f"epoch_ms {self.epoch_ms}: {self.rebalance_ms}")
        self._thread_names: Set[str] = set()
        self._pinned: Set[str] = set()
        self._channel_names: Set[str] = set()
        for spec in self.threads:
            self._check_thread(spec)
        for spec in self.channels:
            self._check_channel(spec)
        for op in self.ops:
            self._check_op(op)
        for core, shard in self.placement.items():
            if not self._core_ok(core) or shard < 0:
                raise ShardError(
                    f"bad placement entry: core={core} shard={shard}")

    def _check_thread(self, spec: Dict[str, Any]) -> None:
        if not self._core_ok(spec.get("core")):
            raise ShardError(f"thread spec on unknown core: {spec!r}")
        body = spec.get("body")
        if not isinstance(body, str) or body not in BODY_REGISTRY:
            raise ShardError(
                f"unregistered body {body!r}; known: "
                f"{sorted(BODY_REGISTRY)}")
        name = spec.get("name")
        if not isinstance(name, str) or not name \
                or name in self._thread_names:
            raise ShardError(f"thread names must be unique: {spec!r}")
        if finite(f"thread {name!r} tickets",
                  spec.get("tickets", 0.0)) <= 0.0:
            raise ShardError(f"thread needs positive tickets: {spec!r}")
        pinned = spec.get("pinned", False)
        if not isinstance(pinned, bool):
            raise ShardError(f"thread {name!r} pinned must be a bool: "
                             f"{pinned!r}")
        self._thread_names.add(name)
        if pinned:
            self._pinned.add(name)

    def _check_channel(self, spec: Dict[str, Any]) -> None:
        if not self._core_ok(spec.get("home")):
            raise ShardError(f"channel homed on unknown core: {spec!r}")
        name = spec.get("name")
        if not isinstance(name, str) or not name \
                or name in self._channel_names:
            raise ShardError(f"channel names must be unique: {spec!r}")
        self._channel_names.add(name)

    def _check_op(self, op: Dict[str, Any]) -> None:
        kind = op.get("op")
        if not isinstance(kind, str) or kind not in _OP_KINDS:
            raise ShardError(f"unknown plan op: {op!r}")
        if finite(f"{kind} op 'at'", op.get("at", -1.0)) < 0.0:
            raise ShardError(f"op needs a non-negative time: {op!r}")
        if kind == "migrate":
            thread = op.get("thread")
            if (not isinstance(thread, str)
                    or thread not in self._thread_names
                    or thread in self._pinned
                    or not self._core_ok(op.get("src"))
                    or not self._core_ok(op.get("dst"))):
                raise ShardError(f"bad migrate op: {op!r}")
        else:
            core, dst = op.get("core"), op.get("evacuate_to")
            if not self._core_ok(core) or (dst is not None and (
                    dst == core or not self._core_ok(dst))):
                raise ShardError(f"bad {kind} op: {op!r}")

    # -- derived views -------------------------------------------------------

    def core_seed(self, core_id: int) -> int:
        """The private Park-Miller seed of ``core_id``'s PRNG stream."""
        return self.seed + CORE_SEED_STRIDE * core_id

    def threads_on(self, core_id: int) -> List[Dict[str, Any]]:
        """Thread specs placed on ``core_id``, in plan order."""
        return [spec for spec in self.threads if spec["core"] == core_id]

    def ops_on(self, core_id: int) -> List[Dict[str, Any]]:
        """Scripted ops whose *source* core is ``core_id``."""
        out = []
        for op in self.ops:
            source = op["src"] if op["op"] == "migrate" else op["core"]
            if source == core_id:
                out.append(op)
        return out

    def quiet_horizon(self, now: float, until: float, epoch_ms: float,
                      max_epochs: Optional[int] = None) -> float:
        """Conservative lookahead: the furthest barrier instant in
        ``(now, until]`` that one slice command may run to -- every
        epoch before the last one provably emits no cross-core payload,
        so the cores can barrier themselves at the instants between.

        Sound because payloads have only static origins.  A channel
        (call, send, reply) can carry traffic in any epoch: the window
        is one epoch.  A scripted op emits when it fires, at its static
        ``at``: the window ends at the first instant after it, where
        the respawn is due.  What an op respawns is a plan body, which
        reaches another core only through a channel.  A rebalance
        instant ends a window too: the cores report their loads there,
        and the moves ride the barrier held at it.  ``max_epochs``
        caps the window for reasons the plan cannot see (held
        stop-point payloads, a host fault scheduled on a later slice).
        """
        if self.channels:
            max_epochs = 1
        # An op before ``now`` fired in an earlier epoch; one at ``now``
        # may have (at a stop) -- counting it costs one short window.
        due = min((float(op["at"]) for op in self.ops
                   if float(op["at"]) >= now - GRID_EPS), default=None)
        rebalance = self.rebalance_ms
        end = now
        for epochs, end in enumerate(grid_instants(now, until, epoch_ms), 1):
            if epochs == max_epochs or (due is not None
                                        and due < end - GRID_EPS) or (
                    rebalance and on_grid(end, rebalance)):
                break
        return end

    # -- serialization -------------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        data = {
            "seed": self.seed,
            "cores": self.cores,
            "quantum": self.quantum,
            "epoch_ms": self.epoch_ms,
            "use_tree": self.use_tree,
            "threads": [dict(spec) for spec in self.threads],
            "channels": [dict(spec) for spec in self.channels],
            "ops": [dict(op) for op in self.ops],
            "placement": {str(k): v for k, v in self.placement.items()},
        }
        # Absent, not null, when off: a static plan keeps its checksum.
        if self.rebalance_ms is not None:
            data["rebalance_ms"] = self.rebalance_ms
        return data

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "ShardPlan":
        if not isinstance(data, dict):
            raise ShardError(f"plan must be a dict: {type(data).__name__}")
        return cls(
            seed=data.get("seed", 1),
            cores=data.get("cores", 1),
            quantum=data.get("quantum", 100.0),
            epoch_ms=data.get("epoch_ms", 500.0),
            use_tree=data.get("use_tree", False),
            threads=data.get("threads"),
            channels=data.get("channels"),
            ops=data.get("ops"),
            placement=data.get("placement"),
            rebalance_ms=data.get("rebalance_ms"),
        )

    def checksum(self) -> str:
        """sha256 over the canonical JSON form (plan identity)."""
        return tree_checksum(self.to_dict())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<ShardPlan seed={self.seed} cores={self.cores} "
                f"threads={len(self.threads)} channels={len(self.channels)} "
                f"ops={len(self.ops)}>")


def spin_plan(seed: int = 97, cores: int = 4, spinners: int = 3,
              quantum: float = 10.0, epoch_ms: float = 100.0,
              use_tree: bool = False) -> ShardPlan:
    """CPU-bound plan: ``spinners`` heterogeneously funded spinners per
    core (the shard benchmark workload -- no cross-core traffic, so it
    measures pure dispatch throughput)."""
    plan = ShardPlan(seed=seed, cores=cores, quantum=quantum,
                     epoch_ms=epoch_ms, use_tree=use_tree)
    index = 0
    for core in range(cores):
        for _ in range(spinners):
            plan.add_thread(core, "spin", f"spin{index}",
                            tickets=float(1 + (index % 13)), chunk_ms=7.0)
            index += 1
    return plan


def mix_plan(seed: int = 11, cores: int = 4, quantum: float = 100.0,
             epoch_ms: float = 500.0, use_tree: bool = False,
             with_ops: bool = False) -> ShardPlan:
    """The kitchen-sink plan used by goldens and the shard-mix recipe:
    spinners and sleepers on every core, an RPC service homed on core 0
    with clients on every *other* core (cross-core IPC), and --
    optionally -- a scripted mid-run migration and a crash with
    cross-shard evacuation."""
    plan = ShardPlan(seed=seed, cores=cores, quantum=quantum,
                     epoch_ms=epoch_ms, use_tree=use_tree)
    plan.add_channel("svc", home=0)
    plan.add_thread(0, "rpc_server", "server", tickets=400.0, channel="svc",
                    work_ms=4.0)
    for core in range(cores):
        plan.add_thread(core, "spin", f"spin{core}a",
                        tickets=float(100 + 50 * core), chunk_ms=20.0)
        plan.add_thread(core, "spin", f"spin{core}b",
                        tickets=float(250 - 40 * core), chunk_ms=15.0)
        plan.add_thread(core, "sleeper", f"sleep{core}", tickets=150.0,
                        compute_ms=5.0, sleep_ms=45.0)
        if core != 0:
            plan.add_thread(core, "rpc_client", f"client{core}",
                            tickets=200.0, channel="svc", compute_ms=10.0,
                            sleep_ms=30.0)
    if with_ops and cores >= 2:
        plan.migrate(at=1250.0, thread="spin0a", src=0, dst=cores - 1)
        plan.crash(at=2750.0, core=cores - 1, evacuate_to=1 % (cores - 1))
    return plan


def _serving(seed: int, cores: int) -> ShardPlan:
    # Imported when called: repro.serving pulls in the arena stack,
    # which the other plans never need.
    from repro.serving.shardplan import serving_plan

    return serving_plan(seed=seed, cores=cores)


def _chaos(seed: int, cores: int) -> ShardPlan:
    from repro.experiments.chaos_fairness import chaos_plan

    return chaos_plan(seed=seed, cores=cores)


#: The built-in plans by name, each built from ``(seed, cores)``: the
#: one table the shard CLI, the checkpoint recipes and the tests read.
PLANS: Dict[str, Callable[[int, int], ShardPlan]] = {
    "mix": lambda seed, cores: mix_plan(seed=seed, cores=cores),
    "mix-ops": lambda seed, cores: mix_plan(seed=seed, cores=cores,
                                            with_ops=True),
    "spin": lambda seed, cores: spin_plan(seed=seed, cores=cores),
    "serving": _serving,
    "chaos": _chaos,
}
