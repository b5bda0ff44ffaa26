"""I/O-bandwidth generalizations: lottery-scheduled disk and network."""

from repro._exports import lazy_exports

__all__ = [
    "Disk",
    "DiskRequest",
    "FIFO",
    "LOTTERY",
    "LinkScheduler",
    "ROUND_ROBIN",
    "VirtualCircuit",
]

__getattr__ = lazy_exports(globals(), {
    "FIFO": ".disk", "LOTTERY": ".disk", "ROUND_ROBIN": ".disk",
    "Disk": ".disk", "DiskRequest": ".disk",
    "LinkScheduler": ".netport", "VirtualCircuit": ".netport",
})
