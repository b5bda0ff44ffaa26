"""Synchronization primitives: standard and lottery-scheduled."""

from repro._exports import lazy_exports

__all__ = ["LotteryMutex", "Mutex", "MutexBase"]

__getattr__ = lazy_exports(globals(), {
    "LotteryMutex": ".mutex", "Mutex": ".mutex", "MutexBase": ".mutex",
})
