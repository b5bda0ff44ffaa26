"""The telemetry hub and its kernel probe.

:class:`Telemetry` owns one :class:`~repro.telemetry.spans.SpanTracer`
and one :class:`~repro.telemetry.registry.MetricRegistry` and wires
them into a running system:

* ``instrument_kernel`` attaches a :class:`KernelProbe` through the
  kernel's recorder mux (quantum spans, wake-to-dispatch latency) and
  installs the lottery policy's ``draw_hook`` (per-draw instants with
  the winner's funding and the total at stake);
* ``instrument_handle`` walks a checkpoint recipe's
  :class:`~repro.checkpoint.registry.SimHandle` and instruments every
  kernel in it, plus checkpoint save/restore notifications
  via :mod:`repro.telemetry.hooks`.

Everything recorded is a pure function of virtual-time events, so
telemetry never perturbs scheduling: probes only read state, the draw
hook is observation-only by contract, and a system that never imports
this module behaves bit-identically to one that does but leaves it
detached.

The wake-to-dispatch latency histogram is keyed by the winning
thread's *ticket share band* (its nominal funding over the live total)
-- the paper's core claim is that response time scales inversely with
ticket allocation, and this instrument makes that visible per run.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, TYPE_CHECKING, Tuple

if TYPE_CHECKING:  # pragma: no cover
    from repro.kernel.kernel import Kernel
    from repro.kernel.thread import Thread
    from repro.telemetry.registry import Counter, HistogramInstrument

from repro.kernel.thread import ThreadState

__all__ = ["KernelProbe", "Telemetry", "SHARE_BANDS"]

#: Ticket-share bands for the latency histogram: (upper bound, label).
SHARE_BANDS: Tuple[Tuple[float, str], ...] = (
    (0.05, "0-5%"),
    (0.10, "5-10%"),
    (0.20, "10-20%"),
    (0.50, "20-50%"),
    (1.01, "50-100%"),
)

#: Bin width (virtual ms) of the latency histograms.
LATENCY_BIN_MS = 5.0


class KernelProbe:
    """Recorder sink turning one kernel's event stream into spans.

    Each dispatch opens a ``quantum`` span on the probe's track; the
    span closes when the thread blocks or exits (at that event's time)
    or when the next dispatch arrives (at the last CPU slice's end --
    a preemption).  CPU slices update the close candidate, so quantum
    spans cover exactly the time the thread held the CPU.
    """

    def __init__(self, telemetry: "Telemetry", kernel: "Kernel",
                 track: str) -> None:
        self.telemetry = telemetry
        self.kernel = kernel
        self.track = track
        self._open_quantum = None
        self._quantum_tid: Optional[int] = None
        self._end_candidate = 0.0
        #: Open and file a quantum: the span tracer's writer for that
        #: one shape, bound here so that each is one call.
        quantum = telemetry.tracer.site(
            track, "quantum", "kernel", ("thread", "tid", "share", "outcome"))
        self._begin_quantum = quantum.begin
        self._end_quantum = quantum.end
        #: Wake-to-dispatch histograms by share band, bound on first use.
        self._latency: Dict[str, HistogramInstrument] = {}
        registry = telemetry.registry
        labels = {"track": track}
        self._dispatches = registry.counter(
            "repro_dispatches_total", labels,
            help="Thread dispatches (quanta started).")
        self._cpu_ms = registry.counter(
            "repro_cpu_ms_total", labels,
            help="Virtual CPU milliseconds consumed.")
        self._blocks = registry.counter(
            "repro_blocks_total", labels, help="Threads blocking.")
        self._wakes = registry.counter(
            "repro_wakes_total", labels, help="Threads waking.")
        self._exits = registry.counter(
            "repro_exits_total", labels, help="Threads exiting.")

    # -- recorder protocol ---------------------------------------------------

    # A counter that goes up by exactly one per event is bumped in
    # place; an amount that varies goes through ``Counter.inc`` and its
    # sign check.

    def on_dispatch(self, thread: "Thread", time: float) -> None:
        span = self._open_quantum
        if span is not None:  # preempted: close at its last CPU slice
            self._open_quantum = None
            self._end_quantum(span, max(self._end_candidate, span.start),
                              "preempt")
        self._dispatches.value += 1.0
        # The thread's nominal ticket share among live threads.  Summed
        # left to right in ``kernel.threads`` order, never kept as a
        # running total: the rounded share is in the trace digest, so
        # the float must come out bit-identical.  The cached value is
        # read in place of two calls per live thread.
        total = 0.0
        exited = ThreadState.EXITED
        for other in self.kernel.threads:
            if other.state is not exited:
                value = other._nominal_value
                total += other.nominal_funding() if value is None else value
        value = thread._nominal_value  # the walk just cached it
        share = value / total if total > 0 else 0.0
        since = thread.runnable_since
        if since is not None:
            latency = time - since
            if latency >= 0:
                for bound, band in SHARE_BANDS:
                    if share < bound:
                        break
                histogram = self._latency.get(band)
                if histogram is None:
                    histogram = self.telemetry._histogram(
                        "repro_wake_to_dispatch_ms", {"share": band},
                        "Runnable-to-dispatch latency by ticket share band.")
                    self._latency[band] = histogram
                histogram.record(latency)
        self._open_quantum = self._begin_quantum(
            time, {"thread": thread.name, "tid": thread.tid,
                   "share": round(share, 6)})
        self._quantum_tid = thread.tid
        self._end_candidate = time

    def on_cpu(self, thread: "Thread", start: float, duration: float) -> None:
        self._cpu_ms.inc(duration)
        if self._quantum_tid == thread.tid:
            self._end_candidate = max(self._end_candidate, start + duration)

    def on_block(self, thread: "Thread", time: float) -> None:
        self._blocks.value += 1.0
        span = self._open_quantum
        if span is not None and self._quantum_tid == thread.tid:
            # ``_close_quantum``, without its frame: most quanta end here.
            self._open_quantum = self._quantum_tid = None
            self._end_quantum(span, max(time, span.start), "block")

    def on_wake(self, thread: "Thread", time: float) -> None:
        self._wakes.value += 1.0

    def on_exit(self, thread: "Thread", time: float) -> None:
        self._exits.value += 1.0
        if self._quantum_tid == thread.tid:
            self._close_quantum(time, "exit")

    # -- quantum span management --------------------------------------------

    def close_open_quantum(self) -> None:
        """Close a still-open quantum at its last CPU slice (preemption
        or end of run)."""
        if self._open_quantum is not None:
            self._close_quantum(self._end_candidate, "preempt")

    def _close_quantum(self, end: float, outcome: str) -> None:
        span = self._open_quantum
        if span is None:
            return
        self._open_quantum = None
        self._quantum_tid = None
        self._end_quantum(span, max(end, span.start), outcome)


class Telemetry:
    """The observability hub: tracer + registry + instrumentation."""

    def __init__(self, max_spans: int = 1_000_000,
                 strict: bool = False) -> None:
        # Loaded with the first hub, not with this module: a run that
        # never builds one never compiles the span store or registry.
        from repro.telemetry.registry import MetricRegistry
        from repro.telemetry.spans import SpanTracer

        self.tracer = SpanTracer(max_spans=max_spans, strict=strict)
        self.registry = MetricRegistry()
        #: What a callback looked up once and needs on every event.  The
        #: cold callbacks go through ``_counter`` / ``_histogram``, keyed
        #: by (name, *label values), so the registry renders
        #: ``name{labels}`` on first use only; the per-event ones keep
        #: their span site's writer and their instruments under whatever
        #: they have in hand -- the kernel, plus the RPC flag or the
        #: service class.
        self._bound: Dict[Any, Any] = {}
        #: (kernel, probe) pairs in attach order.
        self._probes: List[Tuple[Any, KernelProbe]] = []
        self._instrumented_policies: List[Any] = []
        self._observing_checkpoints = False

    # -- wiring --------------------------------------------------------------

    def instrument_kernel(self, kernel: "Kernel",
                          track: str = "kernel") -> KernelProbe:
        """Attach a probe to a kernel (mux-safe) and hook its policy."""
        probe = KernelProbe(self, kernel, track)
        kernel.attach_recorder(probe)
        kernel.telemetry = self
        policy = kernel.policy
        if hasattr(policy, "draw_hook"):
            policy.draw_hook = self._make_draw_hook(track)
            self._instrumented_policies.append(policy)
        self._probes.append((kernel, probe))
        return probe

    def instrument_handle(self, handle: Any) -> "Telemetry":
        """Instrument every kernel of a recipe's
        :class:`~repro.checkpoint.registry.SimHandle`; returns self."""
        from repro.kernel.kernel import Kernel

        for name, component in handle.components.items():
            if isinstance(component, Kernel):
                self.instrument_kernel(component, track=name)
        self.observe_checkpoints()
        return self

    def observe_checkpoints(self) -> None:
        """Subscribe to checkpoint save/restore notifications."""
        from repro.telemetry import hooks

        if not self._observing_checkpoints:
            hooks.subscribe(self)
            self._observing_checkpoints = True

    def finalize(self, time: float) -> None:
        """Close open quantum spans and any dangling spans at ``time``
        (call once, after the run)."""
        for _, probe in self._probes:
            probe.close_open_quantum()
        self.tracer.finalize(time)

    def close(self) -> None:
        """Detach every probe and hook, leaving the system as found."""
        from repro.telemetry import hooks

        for kernel, probe in self._probes:
            kernel.detach_recorder(probe)
            if kernel.telemetry is self:
                kernel.telemetry = None
        self._probes.clear()
        self._bound.clear()
        for policy in self._instrumented_policies:
            policy.draw_hook = None
        self._instrumented_policies.clear()
        if self._observing_checkpoints:
            hooks.unsubscribe(self)
            self._observing_checkpoints = False

    # -- component callbacks -------------------------------------------------

    def on_ipc_send(self, port: Any, request: Any, rpc: bool) -> None:
        """A message or call entered a port (instant event)."""
        kernel = port.kernel
        bound = self._bound.get((kernel, rpc))
        if bound is None:
            track = self._track_of(kernel)
            bound = self._bound[kernel, rpc] = (
                self.tracer.site(track, "ipc.call" if rpc else "ipc.send",
                                 "ipc", ("port",)).event,
                self._counter(
                    "repro_ipc_calls_total" if rpc
                    else "repro_ipc_sends_total", {"track": track},
                    "IPC calls (RPCs)." if rpc
                    else "Asynchronous IPC sends."))
        event, counter = bound
        event(kernel.clock.now, port.name)
        counter.value += 1.0

    def on_ipc_reply(self, port: Any, request: Any) -> None:
        """An RPC completed: record its whole lifetime as a span."""
        kernel = port.kernel
        bound = self._bound.get(kernel)
        if bound is None:
            track = self._track_of(kernel)
            bound = self._bound[kernel] = (
                self.tracer.site(track, "ipc.rpc", "ipc",
                                 ("port", "attempts")).complete,
                self._counter("repro_ipc_replies_total", {"track": track},
                              "RPC replies delivered."),
                self._histogram("repro_ipc_rpc_ms", {"track": track},
                                "RPC response times (call to reply)."),
            )
        complete, replies, rpc_ms = bound
        now = kernel.clock.now
        complete(request.created_at, now, port.name,
                 request.delivery_attempts)
        replies.value += 1.0
        rpc_ms.record(now - request.created_at)

    def on_request_complete(self, kernel: "Kernel", service_class: str,
                            e2e_ms: float) -> None:
        """A serving-arena request finished end-to-end (arrival to
        reply); keyed by service class, not share band, so per-class
        tail latency is readable straight off the histogram."""
        bound = self._bound.get((kernel, service_class))
        if bound is None:
            labels = {"track": self._track_of(kernel), "class": service_class}
            bound = self._bound[kernel, service_class] = (
                self._counter("repro_requests_completed_total", labels,
                              "Serving requests completed end-to-end."),
                self._histogram("repro_request_e2e_ms", labels,
                                "End-to-end request latency (scheduled "
                                "arrival to reply) by service class."),
            )
        completed, e2e = bound
        completed.value += 1.0
        e2e.record(e2e_ms)

    def on_checkpoint(self, kind: str, time: float, checksum: Optional[str],
                      path: Optional[str]) -> None:
        """A checkpoint was saved or restored (via telemetry hooks)."""
        attrs: Dict[str, Any] = {}
        if checksum is not None:
            attrs["checksum"] = checksum
        self.tracer.event("checkpoint", f"checkpoint.{kind}", "checkpoint",
                          time, attrs)
        self._counter(
            "repro_checkpoints_total", {"kind": kind},
            "Checkpoint saves and restores.").inc()

    # -- state ---------------------------------------------------------------

    def snapshot_state(self) -> Dict[str, Any]:
        """Summary state tree (probe wiring is transient by design)."""
        return {
            "tracer": self.tracer.snapshot_state(),
            "registry": self.registry.snapshot_state(),
            "probes": len(self._probes),
        }

    # -- internals -----------------------------------------------------------

    def _counter(self, name: str, labels: Dict[str, str],
                 help: str) -> Counter:
        """``registry.counter(...)``, looked up once per identity."""
        key = (name, *labels.values())
        counter = self._bound.get(key)
        if counter is None:
            counter = self._bound[key] = self.registry.counter(
                name, labels, help=help)
        return counter

    def _histogram(self, name: str, labels: Dict[str, str],
                   help: str) -> HistogramInstrument:
        """``registry.histogram(...)`` at :data:`LATENCY_BIN_MS`, looked
        up once per identity."""
        key = (name, *labels.values())
        histogram = self._bound.get(key)
        if histogram is None:
            histogram = self._bound[key] = self.registry.histogram(
                name, LATENCY_BIN_MS, labels, help=help)
        return histogram

    def _make_draw_hook(self, track: str):
        labels = {"track": track}
        draw_event = self.tracer.site(
            track, "lottery.draw", "scheduler",
            ("winner", "tid", "funding", "total", "runnable", "examined",
             "fallback", "prng_state")).event
        # Bound by the first draw (and the first fallback), not here: an
        # instrument appears in the registry when it first counts.
        draws = examined_total = fallbacks = None

        def hook(winner: "Thread", funding: float, total: float,
                 runnable: int, examined: int, fallback: bool,
                 prng_state: int) -> None:
            nonlocal draws, examined_total, fallbacks
            draw_event(winner.kernel.clock.now, winner.name, winner.tid,
                       funding, total, runnable, examined, fallback,
                       prng_state)
            if draws is None:
                draws = self._counter(
                    "repro_lottery_draws_total", labels,
                    "Lotteries held (including fallbacks).")
                examined_total = self._counter(
                    "repro_lottery_examined_total", labels,
                    "Clients examined while drawing.")
            draws.value += 1.0
            examined_total.inc(examined)
            if fallback:
                if fallbacks is None:
                    fallbacks = self._counter(
                        "repro_lottery_fallbacks_total", labels,
                        "Zero-funding FIFO fallbacks.")
                fallbacks.value += 1.0

        return hook

    def _track_of(self, kernel: Any) -> str:
        for candidate, probe in self._probes:
            if candidate is kernel:
                return probe.track
        return "kernel"

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<Telemetry probes={len(self._probes)} "
                f"spans={len(self.tracer)} "
                f"metrics={len(self.registry)}>")
