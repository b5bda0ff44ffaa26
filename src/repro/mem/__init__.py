"""Memory management generalization: inverse-lottery page replacement."""

from repro._exports import lazy_exports

__all__ = [
    "FIFOReplacement",
    "Frame",
    "FramePool",
    "InverseLotteryReplacement",
    "LRUReplacement",
    "MemoryManager",
    "PagedWorkload",
    "DEFAULT_FAULT_SERVICE_MS",
    "PageBinding",
    "RandomReplacement",
    "ReplacementPolicy",
]

__getattr__ = lazy_exports(globals(), {
    "Frame": ".frames", "FramePool": ".frames", "PageBinding": ".frames",
    "MemoryManager": ".manager",
    "DEFAULT_FAULT_SERVICE_MS": ".paging", "PagedWorkload": ".paging",
    "FIFOReplacement": ".policies", "InverseLotteryReplacement": ".policies",
    "LRUReplacement": ".policies", "RandomReplacement": ".policies",
    "ReplacementPolicy": ".policies",
})
