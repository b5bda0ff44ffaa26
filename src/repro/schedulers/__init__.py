"""Scheduling policies: the lottery and the baselines it is compared to."""

from repro._exports import lazy_exports

__all__ = [
    "FairSharePolicy",
    "FixedPriorityPolicy",
    "LotteryPolicy",
    "RoundRobinPolicy",
    "STRIDE1",
    "SchedulingPolicy",
    "StridePolicy",
    "TimesharingPolicy",
]

__getattr__ = lazy_exports(globals(), {
    "SchedulingPolicy": ".base",
    "FairSharePolicy": ".fair_share",
    "LotteryPolicy": ".lottery_policy",
    "FixedPriorityPolicy": ".priority",
    "RoundRobinPolicy": ".round_robin",
    "STRIDE1": ".stride", "StridePolicy": ".stride",
    "TimesharingPolicy": ".timesharing",
})
