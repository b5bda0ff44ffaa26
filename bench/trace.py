"""Per-layer tracing from outside: timing wrappers on public methods.

The traced run of a workload patches the public methods listed in
:func:`default_targets` at class level (module level for the one free
function), in the driver process only, and restores them afterwards.
Each wrapper is a span boundary.  Boundaries crossed millions of times
(*hot*) are only aggregated -- ``calls`` and ``self_s`` per layer,
readable per slice through :meth:`Tracer.totals` -- while the few
crossed once per epoch or control period (*cold*) are also recorded
one by one as ``{name, start, end, parent}``.

Self time is a span's duration minus the part its child spans cover,
so the layers' ``self_s`` never overlap and sum to at most the traced
wall; what is left is time in no wrapped layer.  A call into the layer
that is already innermost (``call_after`` using ``call_at``) stays
inside the enclosing span, so ``calls`` counts entries into a layer
from outside it.

Known distortion, by construction of measuring from outside: the part
of a wrapper that runs outside its own clock readings (~0.3 us a call)
is charged to the parent's self time, so a layer with many wrapped
children reads high.  ``trace.overhead_frac`` reports the total.
"""

from __future__ import annotations

import functools
import json
import time
import types
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

__all__ = ["Target", "Tracer", "default_targets", "defining_owner"]


@dataclass(frozen=True)
class Target:
    """Public attributes of one class (or module) charged to one layer."""

    layer: str
    owner: Any
    attrs: Tuple[str, ...]
    #: Record every call as a span of its own (cold boundaries only).
    cold: bool = False
    #: ``observe(counters, args, result)`` -- reads sizes off a call's
    #: arguments or result into named counters; its cost is kept out of
    #: every layer's self time.
    observe: Optional[Callable[[Dict[str, int], tuple, Any], None]] = None


class Tracer:
    """Installs the wrappers, owns the counters and the span list."""

    def __init__(self) -> None:
        self.layers: List[str] = []
        self.counters: Dict[str, int] = {}
        #: Cold spans and the caller's own (:meth:`span`), in start order.
        self.spans: List[Dict[str, Any]] = []
        self._calls: List[int] = []
        self._self_s: List[float] = []
        #: Open wrapped calls, innermost last: [layer id, child seconds].
        self._stack: List[List[Any]] = []
        self._open_span: Optional[int] = None
        self._epoch = time.perf_counter()
        #: (owner, attr, original) of everything currently patched.
        self.installed: List[Tuple[Any, str, Any]] = []

    # -- installation --------------------------------------------------------

    def install(self, targets: List[Target]) -> None:
        patched = set()
        for target in targets:
            for attr in target.attrs:
                owner = defining_owner(target.owner, attr)
                if (owner, attr) in patched:
                    continue
                patched.add((owner, attr))
                original = vars(owner)[attr]
                if not isinstance(original, types.FunctionType):
                    raise TypeError(
                        f"{owner.__name__}.{attr} is not a plain function")
                setattr(owner, attr, self._wrap(original, target))
                self.installed.append((owner, attr, original))

    def uninstall(self) -> None:
        while self.installed:
            owner, attr, original = self.installed.pop()
            setattr(owner, attr, original)

    def _layer_id(self, layer: str) -> int:
        if layer not in self.layers:
            self.layers.append(layer)
            self._calls.append(0)
            self._self_s.append(0.0)
        return self.layers.index(layer)

    def _wrap(self, function: Callable[..., Any], target: Target):
        layer = self._layer_id(target.layer)
        stack, calls, self_s = self._stack, self._calls, self._self_s
        clock = time.perf_counter

        def hot(*args, **kwargs):
            if stack and stack[-1][0] == layer:
                return function(*args, **kwargs)
            frame = [layer, 0.0]
            stack.append(frame)
            start = clock()
            try:
                return function(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                if stack:
                    stack[-1][1] += elapsed
                calls[layer] += 1
                self_s[layer] += elapsed - frame[1]

        def cold(*args, **kwargs):
            if stack and stack[-1][0] == layer:
                return function(*args, **kwargs)
            frame = [layer, 0.0]
            stack.append(frame)
            record = self._begin(f"{target.layer}:{function.__name__}")
            start = clock()
            result = None
            try:
                result = function(*args, **kwargs)
                return result
            finally:
                elapsed = clock() - start
                self._end(record)
                stack.pop()
                calls[layer] += 1
                self_s[layer] += elapsed - frame[1]
                if target.observe is not None:
                    target.observe(self.counters, args, result)
                    # Charged to the parent as child time, so observing
                    # inflates no layer; it ends up in the residual.
                    elapsed = clock() - start
                if stack:
                    stack[-1][1] += elapsed

        return functools.wraps(function)(cold if target.cold or target.observe
                                         else hot)

    # -- spans ---------------------------------------------------------------

    def _begin(self, name: str) -> int:
        index = len(self.spans)
        self.spans.append({"name": name,
                           "start": time.perf_counter() - self._epoch,
                           "end": None, "parent": self._open_span})
        self._open_span = index
        return index

    def _end(self, index: int) -> None:
        span = self.spans[index]
        span["end"] = time.perf_counter() - self._epoch
        self._open_span = span["parent"]

    def span(self, name: str) -> "_SpanContext":
        """A span of the caller's own (the driver's slices); it is a
        parent for the cold spans inside it and belongs to no layer."""
        return _SpanContext(self, name)

    # -- reading -------------------------------------------------------------

    def totals(self) -> Dict[str, Tuple[int, float]]:
        """``{layer: (calls, self_s)}`` so far."""
        return {name: (self._calls[index], self._self_s[index])
                for index, name in enumerate(self.layers)}


class _SpanContext:
    def __init__(self, tracer: Tracer, name: str) -> None:
        self.tracer, self.name = tracer, name

    def __enter__(self) -> Dict[str, Any]:
        self.index = self.tracer._begin(self.name)
        return self.tracer.spans[self.index]

    def __exit__(self, *exc_info: Any) -> None:
        self.tracer._end(self.index)


def defining_owner(owner: Any, attr: str) -> Any:
    """The class in ``owner``'s MRO (or the module) that defines ``attr``."""
    for candidate in getattr(owner, "__mro__", (owner,)):
        if attr in vars(candidate):
            return candidate
    raise AttributeError(f"{owner!r} has no attribute {attr!r}")


def _count_payloads(counters: Dict[str, int], args: tuple, result: Any) -> None:
    payloads = args[2]  # barrier(self, time, payloads)
    counters["shard.payloads"] = counters.get("shard.payloads", 0) \
        + len(payloads)
    counters["shard.payload_bytes"] = counters.get("shard.payload_bytes", 0) \
        + (len(json.dumps(payloads)) if payloads else 0)


def _count_obs_frames(counters: Dict[str, int], args: tuple,
                      result: Any) -> None:
    counters["shard.obs_frame_bytes"] = \
        counters.get("shard.obs_frame_bytes", 0) \
        + (len(json.dumps(result)) if result else 0)


def default_targets() -> List[Target]:
    """Layer = module name; attributes = that module's public surface
    as the five workloads cross it."""
    from repro.core.lottery import ListLottery, TreeLottery
    from repro.core.tickets import Ledger, Ticket, TicketHolder
    from repro.core.transfers import TransferHandle
    from repro.kernel import ipc
    from repro.kernel.kernel import Kernel
    from repro.metrics.recorder import RecorderMux
    from repro.schedulers.lottery_policy import LotteryPolicy
    from repro.serving.admission import AdmissionController
    from repro.serving.slo_controller import ClassLatencyProbe, SloController
    from repro.serving.stats import ServingStats
    from repro.shard.backends import InlineBackend, MpBackend
    from repro.shard.channels import ShardChannel
    from repro.shard.core import ShardCore
    from repro.shard.engine import ShardedEngine
    from repro.sim.engine import LoopCore
    from repro.sim.events import Event
    from repro.telemetry.aggregate import ObsAggregator
    from repro.telemetry.probe import KernelProbe, Telemetry
    from repro.telemetry.registry import (Counter, HistogramInstrument,
                                          MetricRegistry)
    from repro.telemetry.spans import SpanTracer
    from repro.workloads.arrivals import ArrivalProcess

    sink = ("on_dispatch", "on_cpu", "on_block", "on_wake", "on_exit")
    targets = [
        Target("sim.schedule", LoopCore,
               ("call_at", "call_after", "call_soon", "cancel")),
        Target("sim.run", LoopCore, ("run", "run_before", "step")),
        # Everything an event callback does that no layer below claims:
        # the dispatch loop, syscall handlers and thread bodies.
        Target("kernel.run", Kernel, ("run_until",)),
        Target("kernel.run", Event, ("fire",)),
        Target("kernel.spawn", Kernel, ("spawn",)),
        Target("kernel.wake", Kernel, ("wake", "timer_wake")),
        Target("kernel.ipc", ipc.Port, ("send", "call", "receive")),
        Target("kernel.ipc", ipc.Request, ("reply",)),
        Target("kernel.ipc", ShardChannel,
               ("send", "call", "receive", "apply_call", "apply_send",
                "apply_reply")),
        Target("schedulers.select", LotteryPolicy, ("select",)),
        Target("schedulers.enqueue", LotteryPolicy, ("enqueue", "dequeue")),
        Target("schedulers.quantum_end", LotteryPolicy,
               ("quantum_end", "thread_exited")),
        Target("core.lottery.draw", TreeLottery, ("draw",)),
        Target("core.lottery.draw", ListLottery, ("draw",)),
        Target("core.lottery.update", TreeLottery,
               ("add", "remove", "set_value")),
        Target("core.lottery.update", ListLottery, ("add", "remove")),
        Target("core.tickets.funding", TicketHolder, ("funding",)),
        Target("core.tickets.mutate", Ledger, ("create_ticket",)),
        Target("core.tickets.mutate", Ticket,
               ("set_amount", "activate", "deactivate", "fund", "unfund",
                "destroy")),
        # ipc imported the function by name: patch the name it calls.
        Target("core.transfers", ipc, ("transfer_funding",)),
        Target("core.transfers", TransferHandle, ("retarget", "revoke")),
        Target("metrics.mux", RecorderMux, sink),
        Target("workloads.arrivals", ArrivalProcess, ("next_arrival_ms",)),
        Target("serving.admission", AdmissionController, ("admit",)),
        Target("serving.stats", ServingStats,
               ("record_offered", "record_shed", "record_completion",
                "record_wake")),
        Target("serving.probe", ClassLatencyProbe, sink),
        Target("serving.slo", SloController, ("control",), cold=True),
        Target("telemetry.probe", KernelProbe, sink + ("close_open_quantum",)),
        Target("telemetry.probe", Telemetry,
               ("on_ipc_send", "on_ipc_reply", "on_request_complete")),
        Target("telemetry.spans", SpanTracer,
               ("begin", "end", "event", "complete", "finalize")),
        Target("telemetry.registry", MetricRegistry,
               ("counter", "gauge", "histogram", "as_dict")),
        Target("telemetry.registry", Counter, ("inc",)),
        Target("telemetry.registry", HistogramInstrument, ("record",)),
        Target("telemetry.aggregate", ObsAggregator, ("observe",), cold=True),
        Target("shard.engine.merge", ShardedEngine, ("advance",), cold=True),
        Target("shard.core.run_epoch", ShardCore,
               ("run_epoch", "run_inclusive"), cold=True),
        Target("shard.core.apply_barrier", ShardCore, ("apply_barrier",),
               cold=True),
        Target("shard.core.obs_frame", ShardCore, ("obs_frame",), cold=True),
    ]
    for backend in (MpBackend, InlineBackend):
        targets += [
            Target("shard.backend.run_epoch", backend,
                   ("run_epoch", "run_inclusive"), cold=True),
            Target("shard.backend.collect", backend, ("collect",), cold=True),
            Target("shard.backend.barrier", backend, ("barrier",),
                   observe=_count_payloads),
            Target("shard.backend.collect_obs", backend, ("collect_obs",),
                   observe=_count_obs_frames),
        ]
    return targets
