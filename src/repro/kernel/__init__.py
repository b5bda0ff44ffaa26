"""Simulated microkernel: threads, tasks, dispatch loop, and IPC."""

from repro._exports import lazy_exports

__all__ = [
    "AcquireMutex",
    "BLOCK",
    "Call",
    "Compute",
    "Exit",
    "Kernel",
    "Port",
    "Receive",
    "ReleaseMutex",
    "Reply",
    "Request",
    "Send",
    "Sleep",
    "Syscall",
    "Task",
    "Thread",
    "ThreadContext",
    "ThreadState",
    "YieldCPU",
]

__getattr__ = lazy_exports(globals(), {
    "Port": ".ipc", "Request": ".ipc",
    "BLOCK": ".kernel", "Kernel": ".kernel",
    "AcquireMutex": ".syscalls", "Call": ".syscalls", "Compute": ".syscalls",
    "Exit": ".syscalls", "Receive": ".syscalls", "ReleaseMutex": ".syscalls",
    "Reply": ".syscalls", "Send": ".syscalls", "Sleep": ".syscalls",
    "Syscall": ".syscalls", "YieldCPU": ".syscalls",
    "Task": ".thread", "Thread": ".thread", "ThreadContext": ".thread",
    "ThreadState": ".thread",
})
