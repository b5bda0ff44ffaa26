"""Deterministic fault injection and recovery (``repro.faults``).

The paper's proportional-share guarantees are exercised on a healthy
substrate; this subsystem makes them survivable.  Three layers:

* :mod:`repro.faults.plan` -- seeded, immutable fault schedules
  (:class:`FaultPlan`, :class:`FaultPlanBuilder`): thread kill, clock
  skew, timer jitter, IPC drop/delay, disk errors;
* :mod:`repro.faults.injector` -- :class:`FaultInjector` applies a plan
  to live kernels and disks through explicit seams, at exact virtual
  times;
* :mod:`repro.faults.retry` -- bounded, virtual-time exponential
  backoff (:class:`RetryPolicy`, :func:`execute_with_retry`) wired into
  IPC retransmission and disk resubmission.

Everything is driven by the discrete-event engine's clock and
Park-Miller streams, so a chaos run replays bit-for-bit: same seed and
plan, same fault timestamps, same outcome.  Whole cores crashing and
restarting are ``crash`` / ``restart`` ops of a sharded plan
(:mod:`repro.shard.plan`).  See ``docs/FAULTS.md`` for the full
taxonomy and determinism contract.
"""

from repro._exports import lazy_exports

__all__ = [
    "ABORT",
    "FaultEvent",
    "FaultInjector",
    "FaultKind",
    "FaultPlan",
    "FaultPlanBuilder",
    "IpcFaultModel",
    "RetryPolicy",
    "RetryState",
    "disk_submit_with_retry",
    "execute_with_retry",
]

__getattr__ = lazy_exports(globals(), {
    "FaultInjector": ".injector", "IpcFaultModel": ".injector",
    "FaultEvent": ".plan", "FaultKind": ".plan", "FaultPlan": ".plan",
    "FaultPlanBuilder": ".plan",
    "ABORT": ".retry", "RetryPolicy": ".retry", "RetryState": ".retry",
    "disk_submit_with_retry": ".retry", "execute_with_retry": ".retry",
})
