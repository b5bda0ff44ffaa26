"""Syscall objects yielded by simulated thread bodies.

A thread body is a Python generator that *yields* instances of these
classes; the kernel interprets each one, advances virtual time, blocks
or resumes the thread, and (for call-style syscalls) sends the result
back into the generator.  The vocabulary mirrors what the paper's
prototype exercises: CPU consumption, voluntary yielding (the
compensation-ticket experiments), sleeping, synchronous Mach-style RPC
with ticket transfer, and lottery-scheduled mutex operations.

Example body::

    def client(ctx):
        while True:
            yield Compute(5.0)                       # 5 ms of CPU
            reply = yield Call(server_port, "query") # blocking RPC
            yield Sleep(10.0)                        # 10 ms off-CPU
"""

from __future__ import annotations

import math
from typing import Any, TYPE_CHECKING

from repro.errors import KernelError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from repro.kernel.ipc import Port
    from repro.sync.mutex import MutexBase

__all__ = [
    "Syscall",
    "Compute",
    "YieldCPU",
    "Sleep",
    "Exit",
    "Send",
    "Call",
    "Receive",
    "Reply",
    "AcquireMutex",
    "ReleaseMutex",
]


class Syscall:
    """Base class for everything a thread body may yield."""

    __slots__ = ()


class Compute(Syscall):
    """Consume ``duration`` milliseconds of CPU time.

    The kernel charges this against the thread's quantum; a Compute that
    outlives the quantum is resumed (with its remaining duration) the
    next time the thread wins a lottery.
    """

    __slots__ = ("duration", "remaining")

    def __init__(self, duration: float) -> None:
        # Written so that NaN fails too; inf is a spinner that never ends.
        if not 0 <= duration <= math.inf:
            raise KernelError(
                f"compute duration must be non-negative, got {duration!r}")
        self.duration = float(duration)
        self.remaining = float(duration)


class YieldCPU(Syscall):
    """Voluntarily give up the rest of the quantum but stay runnable.

    This is how the section 4.5 experiment's thread B behaves: it uses
    20 ms of a 100 ms quantum and yields, earning a compensation ticket.
    """

    __slots__ = ()


class Sleep(Syscall):
    """Block off-CPU for ``duration`` milliseconds of virtual time."""

    __slots__ = ("duration",)

    def __init__(self, duration: float) -> None:
        # Written so that NaN fails too: ``nan < 0`` is false.
        if not 0 <= duration < math.inf:
            raise KernelError(
                f"sleep duration must be non-negative and finite, "
                f"got {duration!r}")
        self.duration = float(duration)


class Exit(Syscall):
    """Terminate the thread (returning from the generator does the same)."""

    __slots__ = ()


class Send(Syscall):
    """Asynchronously enqueue ``message`` on ``port`` (never blocks)."""

    __slots__ = ("port", "message")

    def __init__(self, port: "Port", message: Any) -> None:
        self.port = port
        self.message = message


class Call(Syscall):
    """Synchronous RPC: send ``message`` to ``port`` and block for the reply.

    This is the modified ``mach_msg`` of section 4.6: while blocked, the
    caller's resource rights are transferred to the server side (to the
    waiting server thread directly, or onto the port's pending-transfer
    list that a later Receive collects).  The yield evaluates to the
    server's reply value.
    """

    __slots__ = ("port", "message", "transfer_fraction")

    def __init__(self, port: "Port", message: Any, transfer_fraction: float = 1.0) -> None:
        self.port = port
        self.message = message
        self.transfer_fraction = transfer_fraction


class Receive(Syscall):
    """Block until a message arrives on ``port``.

    Evaluates to a :class:`repro.kernel.ipc.Request`; for Call-origin
    messages the request carries the reply handle and the client's
    ticket transfer, which funds the receiving thread until it replies.
    """

    __slots__ = ("port",)

    def __init__(self, port: "Port") -> None:
        self.port = port


class Reply(Syscall):
    """Complete an RPC: deliver ``value`` to the blocked caller.

    Destroys the transfer ticket and wakes the client.  Never blocks.
    """

    __slots__ = ("request", "value")

    def __init__(self, request: Any, value: Any) -> None:
        self.request = request
        self.value = value


class AcquireMutex(Syscall):
    """Acquire a mutex, blocking (with ticket transfer for the
    lottery-scheduled variant) if it is held."""

    __slots__ = ("mutex",)

    def __init__(self, mutex: "MutexBase") -> None:
        self.mutex = mutex


class ReleaseMutex(Syscall):
    """Release a held mutex, waking one waiter (chosen by lottery for
    the lottery-scheduled variant).  Never blocks."""

    __slots__ = ("mutex",)

    def __init__(self, mutex: "MutexBase") -> None:
        self.mutex = mutex
