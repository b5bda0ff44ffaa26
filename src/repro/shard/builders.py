"""Registered thread bodies for sharded plans.

Plans name their workloads instead of embedding code: a thread spec is
``{"core": 2, "body": "spin", "name": "spin7", "tickets": 300.0,
"args": {"chunk_ms": 20.0}}`` and the body is looked up here when the
core is built.  That indirection is what lets a plan (a) travel to a
multiprocessing worker as JSON and (b) respawn a migrated or evacuated
thread on its destination core from the recorded spec -- the sharded
engine's restart semantics (see ``docs/SHARDING.md``).

A factory receives the owning :class:`repro.shard.core.ShardCore` and
the spec's ``args`` and returns an ordinary thread body (a generator
function of ``ctx``).  Factories must derive all behaviour from their
arguments; anything else would make the universe depend on which
process built it.  A factory that lives with its subsystem is entered
as ``"module:attr"`` and imported at its first build, so a plan that
never names it never loads that subsystem.
"""

from __future__ import annotations

from importlib import import_module
from typing import Any, Callable, Dict, Union

from repro.errors import ReproError, ShardError

__all__ = ["BODY_REGISTRY", "body_factory", "build_body", "register_body"]


def register_body(name: str) -> Callable[[Callable[..., Any]],
                                         Callable[..., Any]]:
    """Register a body factory under ``name`` (import-time decorator)."""
    def decorator(factory: Callable[..., Any]) -> Callable[..., Any]:
        if name in BODY_REGISTRY:
            raise ShardError(f"body {name!r} already registered")
        BODY_REGISTRY[name] = factory
        return factory
    return decorator


def body_factory(name: Any) -> Callable[..., Any]:
    """The factory registered under ``name``, its module imported."""
    try:
        factory = BODY_REGISTRY[name]
    except KeyError:
        raise ShardError(f"unregistered body {name!r}") from None
    if isinstance(factory, str):
        module, _, attr = factory.partition(":")
        factory = getattr(import_module(module), attr)
    return factory


def build_body(core: Any, spec: Dict[str, Any]) -> Callable[..., Any]:
    """Instantiate the body of a thread spec for ``core``; a factory's
    refusal of its args is re-raised naming the thread."""
    factory = body_factory(spec.get("body"))
    try:
        return factory(core, dict(spec.get("args") or {}))
    except ReproError as exc:
        raise ShardError(f"thread {spec.get('name')!r}: {exc}") from exc


# -- built-in bodies ---------------------------------------------------------


def _spin(core: Any, args: Dict[str, Any]) -> Callable[..., Any]:
    """CPU-bound spinner: the fairness workload of the paper's 5.2."""
    from repro.kernel.syscalls import Compute

    chunk_ms = float(args.get("chunk_ms", 20.0))

    def body(ctx):
        while True:
            yield Compute(chunk_ms)

    return body


def _finite_spin(core: Any, args: Dict[str, Any]) -> Callable[..., Any]:
    """Spinner that exits after ``chunks`` compute bursts."""
    from repro.kernel.syscalls import Compute

    chunk_ms = float(args.get("chunk_ms", 20.0))
    chunks = int(args.get("chunks", 10))

    def body(ctx):
        for _ in range(chunks):
            yield Compute(chunk_ms)

    return body


def _sleeper(core: Any, args: Dict[str, Any]) -> Callable[..., Any]:
    """Interactive-style thread: short bursts between sleeps."""
    from repro.kernel.syscalls import Compute, Sleep

    compute_ms = float(args.get("compute_ms", 5.0))
    sleep_ms = float(args.get("sleep_ms", 50.0))

    def body(ctx):
        while True:
            yield Compute(compute_ms)
            yield Sleep(sleep_ms)

    return body


def _rpc_server(core: Any, args: Dict[str, Any]) -> Callable[..., Any]:
    """Service loop on a channel's home core: receive, work, reply."""
    from repro.kernel.syscalls import Compute, Receive, Reply

    channel = core.channel(args["channel"])
    work_ms = float(args.get("work_ms", 2.0))

    def body(ctx):
        while True:
            request = yield Receive(channel)
            yield Compute(work_ms)
            yield Reply(request, ["ack", request.message])

    return body


def _rpc_client(core: Any, args: Dict[str, Any]) -> Callable[..., Any]:
    """Client loop: compute, call the service (possibly cross-core),
    optionally sleep.  ``count`` bounds the number of calls (0 = run
    forever).  Calls carry no ticket transfer by default so the same
    body works across cores, where separate ledgers make transfers
    meaningless (``transfer_fraction`` re-enables them for same-core
    plans)."""
    from repro.kernel.syscalls import Call, Compute, Sleep

    channel = core.channel(args["channel"])
    compute_ms = float(args.get("compute_ms", 5.0))
    sleep_ms = float(args.get("sleep_ms", 0.0))
    count = int(args.get("count", 0))
    fraction = float(args.get("transfer_fraction", 0.0))

    def body(ctx):
        sent = 0
        while count <= 0 or sent < count:
            yield Compute(compute_ms)
            yield Call(channel, f"m{sent}", fraction)
            sent += 1
            if sleep_ms > 0:
                yield Sleep(sleep_ms)

    return body


#: name -> factory(core, args) -> body(ctx), or the factory's
#: ``"module:attr"``.  Written only at import time (``@register_body``
#: adds to it, never replaces an entry).
BODY_REGISTRY: Dict[str, Union[str, Callable[..., Any]]] = {
    "spin": _spin,
    "finite_spin": _finite_spin,
    "sleeper": _sleeper,
    "rpc_server": _rpc_server,
    "rpc_client": _rpc_client,
    "serving_pump": "repro.serving.shardplan:build_shard_pump",
    "serving_frontend": "repro.serving.shardplan:build_shard_frontend",
    "serving_backend": "repro.serving.shardplan:build_shard_backend",
    "serving_slo": "repro.serving.shardplan:build_shard_slo",
}
