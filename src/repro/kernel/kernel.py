"""The simulated microkernel: dispatch loop and syscall interpreter.

This is the substrate standing in for Mach 3.0 (section 4): a
uniprocessor kernel that repeatedly asks its scheduling policy for the
next thread, runs it for up to one quantum of virtual time, and
interprets the syscalls the thread's body generator yields.  As in
Mach, the running thread is removed from the run queue for the duration
of its quantum -- which for the lottery policy is exactly what
deactivates its tickets (section 4.4) -- and a thread that blocks or
yields early comes off the CPU immediately, triggering the policy's
``quantum_end`` hook (where compensation tickets are granted).

There is no mid-quantum preemption on wakeup: a thread that becomes
runnable joins the run queue and competes in the next lottery, matching
the prototype's 100 ms-quantum behaviour.
"""

from __future__ import annotations

import math
from functools import partial
from typing import Any, Callable, List, Optional, Sequence

from repro.core.tickets import Currency, Ledger
from repro.errors import KernelError, SimulationError
from repro.kernel import syscalls as sc
from repro.kernel.thread import Task, Thread, ThreadBody, ThreadState
from repro.schedulers.base import SchedulingPolicy
from repro.sim.engine import Engine

__all__ = ["Kernel", "BLOCK", "RECORDER_EVENTS", "add_construction_hook",
           "remove_construction_hook", "resolve_recorder_events"]

#: The recorder events, in the order the kernel emits them:
#: ``on_dispatch(thread, time)`` (the thread won the CPU),
#: ``on_cpu(thread, start, duration)`` (it consumed ``duration`` ms from
#: ``start``), ``on_block`` / ``on_wake`` / ``on_exit`` ``(thread,
#: time)``.  :mod:`repro.metrics.recorder` has the sinks.
RECORDER_EVENTS = ("on_dispatch", "on_cpu", "on_block", "on_wake", "on_exit")


def resolve_recorder_events(sinks: Sequence[Any]) -> List[Any]:
    """Per event of :data:`RECORDER_EVENTS`, what emitting it calls:
    None when no sink listens, the one listener's bound method, or a
    fan-out over the listeners in ``sinks`` order.  A sink names the
    events it does not listen to in ``ignored_events``, class data."""
    resolved: List[Any] = []
    for event in RECORDER_EVENTS:
        listeners = tuple(getattr(sink, event) for sink in sinks
                          if event not in getattr(sink, "ignored_events", ()))
        resolved.append(None if not listeners else listeners[0]
                        if len(listeners) == 1
                        else partial(_fan_out, listeners))
    return resolved


def _fan_out(listeners: Sequence[Callable[..., None]], *args: Any) -> None:
    for listener in listeners:
        listener(*args)

#: Process-wide hooks invoked with every newly constructed kernel.
#: Used by :func:`repro.analysis.sanitizer.install_autosanitize` to
#: instrument whole test suites without touching call sites.
_construction_hooks: List[Callable[["Kernel"], None]] = []  # shard: barrier-shared -- process-wide hook registry (sanitizer attach); mutated only in test/tool setup, never during dispatch


#: Injection point for the determinism-race sanitizer (see
#: :mod:`repro.analysis.races`); assigned by ``tracker.activate()``
#: under ``REPRO_SANITIZE=1``.
_race_tracker = None  # shard: barrier-shared -- sanitizer injection point: assigned once by tracker.activate(), read-only afterwards

#: Injection point for the sharded multicore engine (see
#: :mod:`repro.shard.router`); assigned by ``ShardRouter.install()``
#: while a sharded run is executing.  Guards ``run_until`` against
#: bypassing epoch barriers and diverts wakes aimed at remote-caller
#: stubs.
_shard_router = None  # shard: barrier-shared -- router injection point: assigned by ShardRouter.install() between epochs, read-only during dispatch


def add_construction_hook(hook: Callable[["Kernel"], None]) -> None:
    """Register a callable invoked with each new :class:`Kernel`."""
    _construction_hooks.append(hook)


def remove_construction_hook(hook: Callable[["Kernel"], None]) -> None:
    """Deregister a construction hook (no-op if absent)."""
    try:
        _construction_hooks.remove(hook)
    except ValueError:
        pass

#: Sentinel returned by syscall handlers that blocked the thread.
BLOCK = object()

#: Guard against bodies that issue non-CPU syscalls forever at one instant.
_MAX_INSTANT_SYSCALLS = 100_000

_EPS = 1e-9


def _timer_wake_owner(thread: Thread) -> None:
    """Sleep-wakeup trampoline: route through the thread's own kernel,
    resolved when the timer fires."""
    thread.kernel.timer_wake(thread)


# -- instantaneous syscall handlers ------------------------------------------
# Each returns the value sent back into the body, or BLOCK.


def _sys_sleep(kernel: Kernel, syscall: sc.Sleep, thread: Thread) -> Any:
    kernel.engine.call_after(syscall.duration, _timer_wake_owner,
                             label="sleep-wakeup", args=(thread,))
    return BLOCK


def _sys_send(kernel: Kernel, syscall: sc.Send, thread: Thread) -> None:
    syscall.port.send(thread, syscall.message)


def _sys_call(kernel: Kernel, syscall: sc.Call, thread: Thread) -> Any:
    return syscall.port.call(thread, syscall.message,
                             syscall.transfer_fraction)


def _sys_receive(kernel: Kernel, syscall: sc.Receive, thread: Thread) -> Any:
    return syscall.port.receive(thread)


def _sys_reply(kernel: Kernel, syscall: sc.Reply, thread: Thread) -> None:
    syscall.request.reply(syscall.value)


def _sys_acquire_mutex(kernel: Kernel, syscall: sc.AcquireMutex,
                       thread: Thread) -> Any:
    return syscall.mutex.acquire(thread)


def _sys_release_mutex(kernel: Kernel, syscall: sc.ReleaseMutex,
                       thread: Thread) -> None:
    syscall.mutex.release(thread)


#: The zero-CPU syscalls by exact type; a subclass of one is unknown.
_INSTANT_HANDLERS = {  # shard: barrier-shared -- constant dispatch table, never mutated
    sc.Sleep: _sys_sleep,
    sc.Send: _sys_send,
    sc.Call: _sys_call,
    sc.Receive: _sys_receive,
    sc.Reply: _sys_reply,
    sc.AcquireMutex: _sys_acquire_mutex,
    sc.ReleaseMutex: _sys_release_mutex,
}


class Kernel:
    """A single simulated machine: engine + ledger + policy + threads.

    Parameters
    ----------
    engine:
        The discrete-event engine supplying virtual time.
    policy:
        The scheduling policy (lottery or a baseline).
    ledger:
        Ticket/currency registry; created fresh when omitted.
    quantum:
        Scheduling quantum in milliseconds (the prototype's was 100).
    context_switch_cost:
        Virtual milliseconds charged (to nobody) per dispatch, for
        overhead-sensitivity experiments.  Default 0.
    recorder:
        Optional metrics sink (see :mod:`repro.metrics.recorder`).
    """

    def __init__(
        self,
        engine: Engine,
        policy: SchedulingPolicy,
        ledger: Optional[Ledger] = None,
        quantum: float = 100.0,
        context_switch_cost: float = 0.0,
        recorder: Optional[Any] = None,
    ) -> None:
        # Written so that NaN fails too: ``nan <= 0`` is false.
        if not 0 < quantum < math.inf:
            raise KernelError(
                f"quantum must be positive and finite, got {quantum!r}")
        if not 0 <= context_switch_cost < math.inf:
            raise KernelError(
                f"context_switch_cost must be non-negative and finite, "
                f"got {context_switch_cost!r}")
        self.engine = engine
        #: The engine's clock, held directly: the dispatch and wake
        #: paths read ``self.clock.now`` several times per event.
        self.clock = engine.clock
        self.policy = policy
        self.ledger = ledger if ledger is not None else Ledger()
        self.quantum = float(quantum)
        self.context_switch_cost = float(context_switch_cost)
        self.recorder = recorder  # resolves the five events
        #: Optional :class:`repro.telemetry.probe.Telemetry` hub; ports
        #: and policies consult it for span/metric events beyond the
        #: recorder protocol.  Installed by
        #: ``Telemetry.instrument_kernel``, never required.
        self.telemetry: Optional[Any] = None

        self.tasks: List[Task] = []
        self.threads: List[Thread] = []
        #: Ports created on this kernel, in creation order; registered
        #: by :class:`repro.kernel.ipc.Port` so checkpoints can capture
        #: in-flight IPC without a side channel.
        self.ports: List[Any] = []
        self.running: Optional[Thread] = None
        self._quantum_left = 0.0
        self._dispatch_pending = False
        self._instant_syscalls = 0
        #: The pending engine event of the current dispatch (context
        #: switch or compute completion); cancelled when the running
        #: thread is killed or forcibly preempted by a fault.
        self._inflight: Optional[Any] = None

        # -- accounting -----------------------------------------------------
        self.dispatch_count = 0
        self.idle_time = 0.0
        self.kills = 0
        self._idle_since: Optional[float] = self.clock.now

        #: Post-quantum hooks ``fn(kernel, thread, outcome)`` run after
        #: every dispatch fully settles (state transition, re-enqueue,
        #: policy ``quantum_end``); the invariant sanitizer plugs in here.
        self.invariant_hooks: List[Callable[["Kernel", Thread, str], None]] = []

        policy.attach(self)
        for hook in list(_construction_hooks):
            hook(self)

    # -- recorder fan-out ------------------------------------------------------

    @property
    def recorder(self) -> Optional[Any]:
        """The event sink: None, one sink, or a
        :class:`~repro.metrics.recorder.RecorderMux` of several."""
        return self._recorder

    @recorder.setter
    def recorder(self, sink: Optional[Any]) -> None:
        # Resolved at wiring time: an event calls only its listeners.
        self._recorder = sink
        resolved = getattr(sink, "resolved_events", None)  # a mux's own
        if resolved is None:
            resolved = resolve_recorder_events(() if sink is None else (sink,))
        (self._on_dispatch, self._on_cpu, self._on_block, self._on_wake,
         self._on_exit) = resolved

    def attach_recorder(self, sink: Any) -> Any:
        """Add an event sink without displacing the existing recorder.

        The first sink occupies the ``recorder`` slot directly, a second
        converts it to a :class:`~repro.metrics.recorder.RecorderMux`,
        and further sinks join the mux; either way the surface is
        validated and the events re-resolved.  Returns ``sink``.
        """
        from repro.metrics.recorder import RecorderMux

        current = self.recorder
        if current is None:
            RecorderMux(sink)  # validates the surface
            self.recorder = sink
        elif isinstance(current, RecorderMux):
            current.add(sink)
            self.recorder = current
        else:
            self.recorder = RecorderMux(current, sink)
        return sink

    def detach_recorder(self, sink: Any) -> None:
        """Remove a sink attached via :meth:`attach_recorder` (no-op if absent)."""
        from repro.metrics.recorder import RecorderMux

        current = self.recorder
        if current is sink:
            self.recorder = None
        elif isinstance(current, RecorderMux):
            current.remove(sink)
            self.recorder = current

    # -- time ------------------------------------------------------------------

    @property
    def now(self) -> float:
        """Current virtual time in milliseconds."""
        return self.clock.now

    def run_until(self, time: float) -> None:
        """Advance the whole machine to virtual time ``time``.

        Refused when this kernel's engine is a core adopted by a
        sharded run: advancing one core past its siblings would bypass
        the epoch barriers that keep sharded execution deterministic --
        use ``ShardedEngine.advance`` instead.
        """
        router = _shard_router
        if router is not None and router.owns_engine(self.engine):
            raise KernelError(
                "kernel belongs to a sharded run; advance through "
                "ShardedEngine.advance(), not Kernel.run_until()")
        self.engine.run(until=time)

    # -- task and thread creation --------------------------------------------------

    def create_task(self, name: str, currency: Optional[Currency] = None,
                    create_currency: bool = False) -> Task:
        """Create a task, optionally with its own (or a fresh) currency."""
        if create_currency:
            if currency is not None:
                raise KernelError("pass either currency or create_currency")
            currency = self.ledger.create_currency(name)
        task = Task(name, currency)
        self.tasks.append(task)
        return task

    def spawn(
        self,
        body: ThreadBody,
        name: str,
        task: Optional[Task] = None,
        tickets: Optional[float] = None,
        currency: Optional[Currency] = None,
        priority: int = 0,
        start: bool = True,
    ) -> Thread:
        """Create a thread, optionally fund it, and make it runnable.

        ``tickets`` issues a funding ticket denominated in ``currency``
        (default: the task's currency, else base).  Baseline policies
        ignore funding and use ``priority`` / arrival order instead.
        """
        if task is None:
            task = self.create_task(f"task:{name}")
        thread = Thread(name, task, body, self, priority=priority)
        self.threads.append(thread)
        if tickets is not None:
            thread.fund_from(self.ledger, tickets, currency=currency)
        if start:
            self.start_thread(thread)
        return thread

    def start_thread(self, thread: Thread) -> None:
        """Admit a CREATED thread to the run queue."""
        if thread.state is not ThreadState.CREATED:
            raise KernelError(f"thread {thread.name!r} already started")
        self._make_runnable(thread)

    # -- wakeups ---------------------------------------------------------------------

    def wake(self, thread: Thread, value: Any = None) -> None:
        """Unblock a thread, delivering ``value`` into its generator."""
        router = _shard_router
        if router is not None and router.intercept_wake(thread, value):
            # A remote-caller stub (sharded cross-core RPC): the wake
            # travels to the real thread's core as a barrier payload.
            return
        if thread.state is not ThreadState.BLOCKED:
            raise KernelError(
                f"cannot wake thread {thread.name!r} in state {thread.state.value}"
            )
        thread.deliver(value)
        self._make_runnable(thread)
        if self._on_wake is not None:
            self._on_wake(thread, self.clock.now)

    def timer_wake(self, thread: Thread, value: Any = None) -> None:
        """Wake from a timer, tolerating threads killed while asleep.

        Sleep wakeups are scheduled far in advance; if a fault kills
        the sleeper first, the stale timer must fizzle instead of
        raising (EXITED is terminal, so a non-BLOCKED thread here can
        only be a killed one).
        """
        if thread.state is not ThreadState.BLOCKED:
            return
        self.wake(thread, value)

    def _make_runnable(self, thread: Thread) -> None:
        thread.transition(ThreadState.RUNNABLE)
        thread.runnable_since = self.clock.now
        self.policy.enqueue(thread)
        self._schedule_dispatch()

    # -- forced termination and preemption (fault paths) ----------------------------

    def kill(self, thread: Thread, reclaim_tickets: bool = True) -> bool:
        """Forcibly terminate a thread at the current instant.

        Unlike a voluntary exit, ``kill`` may interrupt a RUNNING
        thread mid-quantum (the in-flight compute completion is
        cancelled and its partial progress is lost) and, with
        ``reclaim_tickets`` (the default), destroys the thread's
        tickets so the ledger immediately reflects the loss -- the
        crash analogue of ticket revocation.  Returns False when the
        thread had already exited.
        """
        if thread.state is ThreadState.EXITED:
            return False
        if thread.kernel is not self:
            raise KernelError(
                f"thread {thread.name!r} belongs to another kernel; "
                "kill it via its owner"
            )
        if thread is self.running:
            self._abort_dispatch_window()
        elif thread.state is ThreadState.RUNNABLE and thread.competing:
            self.policy.dequeue(thread)
        thread.current_syscall = None
        thread.transition(ThreadState.EXITED)
        thread.exited_at = self.now
        thread.stop_competing()
        self.policy.thread_exited(thread)
        if reclaim_tickets:
            for ticket in list(thread.tickets):
                ticket.destroy()
        self.kills += 1
        if self._on_exit is not None:
            self._on_exit(thread, self.now)
        self._schedule_dispatch()
        for hook in self.invariant_hooks:
            hook(self, thread, "kill")
        return True

    def preempt_running(self) -> Optional[Thread]:
        """Yank the running thread off the CPU mid-quantum (crash path).

        The interrupted compute segment's progress is lost (neither
        CPU time nor syscall progress is credited) and the thread is
        re-enqueued RUNNABLE; no compensation is granted -- the thread
        did not underuse its quantum voluntarily, its machine failed.
        Returns the preempted thread, or None when the CPU was idle.
        """
        thread = self.running
        if thread is None:
            return None
        self._abort_dispatch_window()
        thread.transition(ThreadState.RUNNABLE)
        thread.runnable_since = self.now
        self.policy.enqueue(thread)
        self._schedule_dispatch()
        for hook in self.invariant_hooks:
            hook(self, thread, "preempt")
        return thread

    def _cancel_inflight(self) -> None:
        if self._inflight is not None:
            self.engine.cancel(self._inflight)
            self._inflight = None

    def _abort_dispatch_window(self) -> None:
        """Tear down the current dispatch entirely (kill/preempt paths).

        Cancelling only the in-flight event used to leave the quantum
        accounting (``_quantum_left``) and the
        instant-syscall counter describing a dispatch that no longer
        exists; a checkpoint taken right after a crash-path preemption
        would then disagree with a clean re-execution of the same
        history.  The whole window is reset so kernel state after an
        abort is indistinguishable from kernel state between dispatches.
        """
        self._cancel_inflight()
        self.running = None
        self._quantum_left = 0.0
        self._instant_syscalls = 0

    def check_dispatch_window(self) -> List[str]:
        """Audit dispatch-window consistency; returns violation strings.

        Empty means the window is coherent: an in-flight event exists
        only while a thread is RUNNING and has not been cancelled, and
        an idle CPU carries no leftover quantum.  Checkpoint capture
        refuses to snapshot a kernel that fails this audit, and restore
        re-audits before resuming -- a restore can therefore never
        revive a stale in-flight dispatch event.
        """
        problems: List[str] = []
        if self._inflight is not None:
            if self.running is None:
                problems.append(
                    "in-flight dispatch event with no running thread")
            if getattr(self._inflight, "cancelled", False):
                problems.append(
                    "in-flight dispatch event was cancelled but not cleared")
        if self.running is None and self._quantum_left > _EPS:
            problems.append(
                f"idle CPU with {self._quantum_left:g}ms of leftover quantum")
        if self.running is not None and \
                self.running.state is not ThreadState.RUNNING:
            problems.append(
                f"running slot holds thread in state "
                f"{self.running.state.value}")
        return problems

    # -- dispatch loop ------------------------------------------------------------------

    def _schedule_dispatch(self) -> None:
        if self.running is None and not self._dispatch_pending:
            self._dispatch_pending = True
            self.engine.call_soon(self._dispatch, label="dispatch")

    # The two engine callbacks below are the owner-context entry
    # points: while one of them (or a continuation it runs in place)
    # executes, this kernel's owner token is on the race-tracker stack,
    # so any mutation of another kernel's thread outside a declared seam
    # traps.  Each reads the tracker as it starts, so one activated
    # mid-run covers the next event on.  Untracked, an entry point is
    # one frame; tracked, it re-enters itself once inside the context
    # ``tracker.enter`` pushed (a nested entry finds it there already).

    def _dispatch(self) -> None:
        tracker = _race_tracker
        if tracker is not None and tracker.active and tracker.enter(self):
            try:
                return self._dispatch()
            finally:
                tracker.pop()
        # One pass a dispatch: a quantum that ends with nothing else due
        # first loops back here instead of scheduling the next one.
        while True:
            self._dispatch_pending = False
            if self.running is not None:
                return
            thread = self.policy.select()
            if thread is None:
                # CPU idles; the next _make_runnable re-arms the
                # dispatcher.  Normalize the dispatch window: a block
                # mid-quantum leaves leftover quantum behind, and an idle
                # CPU carrying one fails check_dispatch_window
                # (checkpoints would refuse).
                self._quantum_left = 0.0
                self._instant_syscalls = 0
                if self._idle_since is None:
                    self._idle_since = self.clock.now
                return
            if self._idle_since is not None:
                self.idle_time += self.clock.now - self._idle_since
                self._idle_since = None
            thread.transition(ThreadState.RUNNING)
            self.running = thread
            self._quantum_left = self.quantum
            self._instant_syscalls = 0
            thread.dispatches += 1
            self.dispatch_count += 1
            if self._on_dispatch is not None:
                self._on_dispatch(thread, self.clock.now)
            if self.context_switch_cost > 0:
                # A segment that computes nothing, done after the switch.
                self._inflight = self.engine.call_after(
                    self.context_switch_cost,
                    self._segment_done,
                    label="context-switch",
                    args=(thread, None, 0.0),
                )
                return
            if not self._segment(thread):
                return

    def _segment(self, thread: Thread, done: Optional[sc.Compute] = None,
                 run: float = 0.0) -> bool:
        """Interpret syscalls until the thread computes past what can run
        in place, blocks, or stops; True when the next dispatch is the
        caller's to run in place.  ``done`` is a compute segment of
        ``run`` ms just finished, on the agenda or in place: the loop
        credits it first either way."""
        self._inflight = None
        engine = self.engine
        while True:
            if done is not None:
                done.remaining -= run
                self._quantum_left -= run
                thread.cpu_time += run
                if self._on_cpu is not None:
                    self._on_cpu(thread, self.clock.now - run, run)
                if done.remaining <= _EPS:
                    thread.current_syscall = None
                if self._quantum_left <= _EPS:
                    return self._end_dispatch(thread, "preempt")
                done = None
            syscall = thread.current_syscall
            if syscall is None:
                syscall = thread.advance()
            # Exact classes only; a plain Compute (the common case) first.
            kind = syscall.__class__
            if kind is sc.Compute:
                thread.current_syscall = syscall
                if self._quantum_left <= _EPS:
                    return self._end_dispatch(thread, "preempt")
                run = min(syscall.remaining, self._quantum_left)
                # The completion fires here when nothing else is due
                # first; otherwise it goes on the agenda.
                if not engine.continue_in_place(self.clock.now + run):
                    self._inflight = engine.call_after(
                        run,
                        self._segment_done,
                        label="compute",
                        args=(thread, syscall, run),
                    )
                    return False
                done = syscall
                continue
            if syscall is None or kind is sc.Exit:
                return self._end_dispatch(thread, "exit")
            if kind is sc.YieldCPU:
                thread.voluntary_yields += 1
                return self._end_dispatch(thread, "yield")
            handler = _INSTANT_HANDLERS.get(kind)
            if handler is None:
                raise KernelError(f"unknown syscall {syscall!r}")
            self._instant_syscalls += 1
            if self._instant_syscalls > _MAX_INSTANT_SYSCALLS:
                raise SimulationError(
                    f"thread {thread.name!r} issued {_MAX_INSTANT_SYSCALLS} "
                    "syscalls without consuming CPU; body is livelocked"
                )
            result = handler(self, syscall, thread)
            if result is BLOCK:
                return self._end_dispatch(thread, "block")
            thread.deliver(result)

    def _segment_done(self, thread: Thread, syscall: Optional[sc.Compute],
                      run: float) -> None:
        tracker = _race_tracker
        if tracker is not None and tracker.active and tracker.enter(self):
            try:
                return self._segment_done(thread, syscall, run)
            finally:
                tracker.pop()
        if self.running is not thread:  # pragma: no cover - defensive
            raise SimulationError("compute completion for a non-running thread")
        if self._segment(thread, syscall, run):
            self._dispatch()

    def _end_dispatch(self, thread: Thread, outcome: str) -> bool:
        """Settle a finished quantum; True when the next dispatch is to
        run in place (the caller loops into ``_dispatch``)."""
        used = self.quantum - self._quantum_left
        self.running = None
        if outcome in ("preempt", "yield"):
            thread.transition(ThreadState.RUNNABLE)
            thread.runnable_since = self.clock.now
            self.policy.enqueue(thread)
            self.policy.quantum_end(thread, used, self.quantum,
                                    still_runnable=True)
        elif outcome == "block":
            thread.transition(ThreadState.BLOCKED)
            self.policy.quantum_end(thread, used, self.quantum,
                                    still_runnable=False)
            if self._on_block is not None:
                self._on_block(thread, self.clock.now)
        elif outcome == "exit":
            thread.transition(ThreadState.EXITED)
            thread.exited_at = self.clock.now
            thread.stop_competing()
            self.policy.thread_exited(thread)
            if self._on_exit is not None:
                self._on_exit(thread, self.clock.now)
        else:  # pragma: no cover - defensive
            raise KernelError(f"unknown dispatch outcome {outcome!r}")
        # _schedule_dispatch, inlined: every quantum passes here.  The
        # decision is taken where the push would be, so an event a hook
        # schedules at this instant still sorts after the dispatch.
        again = False
        if self.running is None and not self._dispatch_pending:
            self._dispatch_pending = True
            again = self.engine.continue_in_place(self.clock.now)
            if not again:
                self.engine.call_soon(self._dispatch, label="dispatch")
        for hook in self.invariant_hooks:
            hook(self, thread, outcome)
        return again

    # -- introspection --------------------------------------------------------------------------

    def cpu_utilization(self, horizon: Optional[float] = None) -> float:
        """Fraction of virtual time the CPU was busy so far."""
        end = horizon if horizon is not None else self.now
        if end <= 0:
            return 0.0
        idle = self.idle_time
        if self._idle_since is not None:
            idle += end - self._idle_since
        return max(0.0, min(1.0, 1.0 - idle / end))

    def snapshot_state(self) -> dict:
        """Typed state tree for checkpointing (see ``repro.checkpoint``).

        Captures the dispatch window, run queue (via the policy seam),
        every thread and task, and in-flight IPC on this kernel's
        ports.  The shared ledger and engine are captured by the
        top-level ``repro.checkpoint.capture`` (kernels may share
        both).  Raises :class:`~repro.errors.KernelError` when
        the dispatch window fails :meth:`check_dispatch_window` -- a
        checkpoint must never record a stale in-flight dispatch.
        """
        problems = self.check_dispatch_window()
        if problems:
            raise KernelError(
                "refusing to snapshot an incoherent dispatch window: "
                + "; ".join(problems))
        inflight = None
        if self._inflight is not None:
            inflight = {"time": self._inflight.time,
                        "label": self._inflight.label}
        return {
            "policy": self.policy.snapshot_state(),
            "quantum": self.quantum,
            "context_switch_cost": self.context_switch_cost,
            "running": None if self.running is None else self.running.tid,
            "quantum_left": self._quantum_left,
            "quantum_size": self.quantum,
            "dispatch_pending": self._dispatch_pending,
            "instant_syscalls": self._instant_syscalls,
            "inflight": inflight,
            "dispatch_count": self.dispatch_count,
            "idle_time": self.idle_time,
            "kills": self.kills,
            "idle_since": self._idle_since,
            "tasks": [task.snapshot_state() for task in self.tasks],
            "threads": [thread.snapshot_state() for thread in self.threads],
            "ports": [port.snapshot_state() for port in self.ports],
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        running = self.running.name if self.running else None
        return (
            f"<Kernel now={self.now:.1f}ms policy={self.policy.name}"
            f" running={running!r} threads={len(self.threads)}>"
        )
