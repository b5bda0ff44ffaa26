"""Threads and tasks for the simulated microkernel.

Mirrors the Mach structure the prototype scheduled: a **task** is a
resource container that (optionally) owns a ticket **currency**, and
**threads** within the task are funded by tickets denominated in that
currency (paper Figure 3: task currencies backed by user currencies,
thread tickets issued in task currencies).

A :class:`Thread` is a :class:`~repro.core.tickets.TicketHolder`, so
the entire currency machinery -- activation on run-queue entry,
compensation tickets, transfers while blocked -- applies to it without
special cases.  The thread's *body* is a generator yielding
:mod:`~repro.kernel.syscalls` objects.
"""

from __future__ import annotations

import enum
from types import MappingProxyType
from typing import Any, Callable, Generator, List, Optional, TYPE_CHECKING

from repro.core.tickets import Currency, Ledger, Ticket, TicketHolder
from repro.errors import ThreadStateError

if TYPE_CHECKING:  # pragma: no cover
    from repro.kernel.kernel import Kernel
    from repro.kernel.syscalls import Syscall

__all__ = ["Thread", "Task", "ThreadState", "ThreadBody", "ThreadContext"]

#: Injection point for the determinism-race sanitizer: set to the
#: :data:`repro.analysis.races.tracker` singleton by its ``activate()``
#: (under ``REPRO_SANITIZE=1``), never imported from here -- the kernel
#: zone must not depend on the analysis package.
_race_tracker = None  # shard: barrier-shared -- sanitizer injection point: assigned once by tracker.activate(), read-only afterwards

#: A thread body: called with a ThreadContext, returns a syscall generator.
ThreadBody = Callable[["ThreadContext"], Generator["Syscall", Any, None]]


class ThreadState(enum.Enum):
    """Lifecycle states of a simulated thread."""

    CREATED = "created"
    RUNNABLE = "runnable"
    RUNNING = "running"
    BLOCKED = "blocked"
    EXITED = "exited"


#: Legal lifecycle edges, ``state value -> states reachable in one
#: step``.  Keyed by the state's string (hashed in C, where hashing the
#: enum member runs ``Enum.__hash__`` in Python); tuple membership
#: tests identity first.  Built once, read-only.
_LEGAL_TRANSITIONS = MappingProxyType({  # shard: shard-local -- constant rule table
    "created": (ThreadState.RUNNABLE, ThreadState.EXITED),
    "runnable": (ThreadState.RUNNING, ThreadState.EXITED),
    "running": (ThreadState.RUNNABLE, ThreadState.BLOCKED,
                ThreadState.EXITED),
    "blocked": (ThreadState.RUNNABLE, ThreadState.EXITED),
    "exited": (),
})


class ThreadContext:
    """Per-thread view handed to the body generator.

    Gives bodies access to the clock and their own identity without
    exposing the whole kernel mutation surface.
    """

    __slots__ = ("kernel", "thread")

    def __init__(self, kernel: "Kernel", thread: "Thread") -> None:
        self.kernel = kernel
        self.thread = thread

    @property
    def now(self) -> float:
        """Current virtual time in milliseconds."""
        return self.kernel.clock.now


class Task:
    """A resource container owning threads and (optionally) a currency.

    If ``currency`` is provided, threads spawned into this task are
    funded by tickets denominated in it, so user-level inflation inside
    the task is insulated from the rest of the system (section 3.3).
    """

    __slots__ = ("name", "currency", "threads")

    def __init__(self, name: str, currency: Optional[Currency] = None) -> None:
        self.name = name
        self.currency = currency
        self.threads: List["Thread"] = []

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        cur = self.currency.name if self.currency else None
        return f"<Task {self.name!r} currency={cur!r} threads={len(self.threads)}>"

    def snapshot_state(self) -> dict:
        """Typed state tree for checkpointing (see ``repro.checkpoint``)."""
        return {
            "name": self.name,
            "currency": self.currency.name if self.currency else None,
            "threads": [thread.tid for thread in self.threads],
        }


class Thread(TicketHolder):
    """A schedulable thread of control.

    Attributes of note:

    * ``funding_currency`` -- the denomination of this thread's own
      tickets, consulted by :mod:`repro.core.transfers` when the thread
      blocks on an RPC or mutex;
    * ``cpu_time`` -- total virtual CPU milliseconds consumed;
    * ``dispatches`` -- number of lotteries won (times dispatched);
    * ``priority`` -- consulted only by the fixed-priority and
      decay-usage baseline policies.

    Threads hash and compare by identity (the ``object`` defaults, in
    C), so keying the scheduler's dicts by thread opens no frame.  An
    identity hash varies between processes; that is safe because the
    only containers of threads are insertion-ordered (lists, dicts),
    never iterated sets.
    """

    __slots__ = ("tid", "task", "kernel", "priority", "state", "_context",
                 "_generator", "_started", "_pending_send",
                 "current_syscall", "cpu_time", "dispatches",
                 "voluntary_yields", "created_at", "exited_at",
                 "runnable_since")

    def __init__(
        self,
        name: str,
        task: Task,
        body: ThreadBody,
        kernel: "Kernel",
        priority: int = 0,
    ) -> None:
        super().__init__(name)
        # Engine-scoped allocation: re-executing the same recipe on a
        # fresh engine reproduces the same tids, which is what lets
        # checkpoint state trees and replay streams compare bit-exactly.
        self.tid = kernel.engine.next_tid()
        self.task = task
        self.kernel = kernel
        self.priority = priority
        self.state = ThreadState.CREATED
        self.funding_currency: Optional[Currency] = task.currency

        self._context = ThreadContext(kernel, self)
        self._generator: Generator["Syscall", Any, None] = body(self._context)
        self._started = False
        #: Value to deliver into the generator on the next advance
        #: (e.g. an RPC reply).
        self._pending_send: Any = None
        #: The in-progress syscall (a partially consumed Compute).
        self.current_syscall: Optional["Syscall"] = None

        # -- accounting ----------------------------------------------------
        self.cpu_time = 0.0
        self.dispatches = 0
        self.voluntary_yields = 0
        self.created_at = kernel.clock.now
        self.exited_at: Optional[float] = None
        #: Set when the thread last became runnable; used for
        #: scheduling-latency measurements.
        self.runnable_since: Optional[float] = None

        task.threads.append(self)

        if _race_tracker is not None and _race_tracker.active:
            # Attach-time ownership: this thread belongs to the kernel
            # that constructed it.
            _race_tracker.tag(self, kernel)

    # -- generator stepping ---------------------------------------------------

    def advance(self) -> Optional["Syscall"]:
        """Step the body to its next syscall; None means the body returned."""
        if self.state is ThreadState.EXITED:
            raise ThreadStateError(f"thread {self.name!r} already exited")
        try:
            if not self._started:
                self._started = True
                return next(self._generator)
            value, self._pending_send = self._pending_send, None
            return self._generator.send(value)
        except StopIteration:
            return None

    def deliver(self, value: Any) -> None:
        """Stage a value (RPC reply, received message) for the next advance."""
        self._pending_send = value

    # -- state transitions --------------------------------------------------------

    def transition(self, new_state: ThreadState) -> None:
        """Move between lifecycle states, validating the edge."""
        if new_state not in _LEGAL_TRANSITIONS[self.state._value_]:
            raise ThreadStateError(
                f"thread {self.name!r}: illegal transition "
                f"{self.state.value} -> {new_state.value}"
            )
        if _race_tracker is not None and _race_tracker.active:
            # Lifecycle transitions are the mutation surface every
            # scheduling path funnels through; trap cross-owner ones.
            _race_tracker.check(self, f"transition to {new_state.value}")
        self.state = new_state

    # -- funding convenience ----------------------------------------------------------

    def fund_from(self, ledger: Ledger, amount: float,
                  currency: Optional[Currency] = None) -> Ticket:
        """Issue a ticket funding this thread.

        Denominated in the task currency when one exists (and no
        explicit ``currency`` is given), else in base.
        """
        denomination = currency or self.task.currency or ledger.base
        self.funding_currency = denomination
        return ledger.create_ticket(amount, currency=denomination, fund=self)

    @property
    def alive(self) -> bool:
        """True until the thread's body returns or Exit is processed."""
        return self.state is not ThreadState.EXITED

    def snapshot_state(self) -> dict:
        """Typed state tree for checkpointing (see ``repro.checkpoint``).

        The body generator's frame is deliberately NOT captured (no
        pickling of live objects); restore re-executes the recipe, so
        the tree only needs to *describe* execution progress -- state,
        accounting, and the in-progress syscall's remaining time --
        precisely enough that two runs can be diffed field-for-field.
        """
        state = super().snapshot_state()
        syscall = self.current_syscall
        if syscall is None:
            syscall_desc = None
        else:
            syscall_desc = {"kind": type(syscall).__name__}
            remaining = getattr(syscall, "remaining", None)
            if remaining is not None:
                syscall_desc["remaining"] = remaining
        state.update({
            "tid": self.tid,
            "task": self.task.name,
            "state": self.state.value,
            "priority": self.priority,
            "funding_currency": (self.funding_currency.name
                                 if self.funding_currency else None),
            "started": self._started,
            "current_syscall": syscall_desc,
            "cpu_time": self.cpu_time,
            "dispatches": self.dispatches,
            "voluntary_yields": self.voluntary_yields,
            "created_at": self.created_at,
            "exited_at": self.exited_at,
            "runnable_since": self.runnable_since,
        })
        return state

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<Thread {self.name!r} tid={self.tid} {self.state.value}"
            f" cpu={self.cpu_time:.1f}ms>"
        )
