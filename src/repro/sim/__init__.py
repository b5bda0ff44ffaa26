"""Discrete-event simulation substrate (virtual clock, events, engine)."""

from repro._exports import lazy_exports

__all__ = ["Engine", "Event", "EventQueue", "MS", "SECONDS", "VirtualClock"]

__getattr__ = lazy_exports(globals(), {
    "MS": ".clock", "SECONDS": ".clock", "VirtualClock": ".clock",
    "Engine": ".engine",
    "Event": ".events", "EventQueue": ".events",
})
