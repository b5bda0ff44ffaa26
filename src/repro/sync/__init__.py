"""Synchronization primitives: standard and lottery-scheduled."""

from repro._exports import lazy_exports

__all__ = ["Condition", "LotteryMutex", "Mutex", "MutexBase", "Semaphore"]

__getattr__ = lazy_exports(globals(), {
    "Condition": ".condition",
    "LotteryMutex": ".mutex", "Mutex": ".mutex", "MutexBase": ".mutex",
    "Semaphore": ".semaphore",
})
